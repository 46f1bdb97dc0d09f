"""Self-expressive coefficient solvers.

Four models share the ridge data term ||X - XC||_F^2 + lam*||.||_F^2 and
differ only in the constraint set:

    lsr    unconstrained (closed form)
    nlsr   C >= 0
    slsr   columns sum to s
    ssrsc  columns on the scale-s simplex (>= 0 and sum to s)

The three constrained models run one ADMM core in scaled form (Boyd et al.
2011): a ridge update of C, a projection update of Z and a dual ascent on
U = Delta/rho, with a ridge shift, a scale and a projection per model from
one table. nlsr puts lam on the C-step (shift (2*lam+rho)/2) and clips
C - U to C >= 0. ssrsc and slsr put it on the Z-step (shift rho/2) and
project rho/(2*lam+rho) * (C - U) onto the simplex or the hyperplane;
ssrsc with ``zero_diagonal`` first writes each column's diagonal entry
more than s below the column's minimum, which the same simplex projection
sends to exactly 0 without changing the other entries.

The ridge system X^T X + shift*I is factored once by one thin SVD
X = U S V^T (r = min(D, N)) into V^T and ridge = s^2/(s^2+shift); lsr's
closed form is V diag(ridge) V^T, and ``regularized_gram_inverse`` builds
the explicit inverse only as a reference. With V^T V = I, neither C nor U
is ever formed: U = S + V M and, for a = rho/(2*shift) (1 for ssrsc and
slsr), C = a(Z + S) + V(a M + W), W from ``_c_step_factor``; the dual step
gives S_new = Z_new - (a Z + (a-1) S) and M_new = (1-a) M - W. The loop
keeps two N x N arrays, Z^T and S^T (one row per point), and the r x N M,
P = V^T Z and R = V^T S. Each 256-row block of Z^T takes one GEMM for its
rows of C - U and is projected and written back; one more GEMM gives P,
and the residuals come from the blocks' norms and O(rN) factor terms.

Solves run on one thread and one BLAS thread (see ``blas``), so their bits do
not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blas import single_blas_thread
from .core import ConfigError, DivergenceError, NumericError, SolverConfig, as_data_matrix
from .projections import project_columns_scaled_affine, project_columns_scaled_simplex, project_nonneg

GRAM_INVERSE_MODES = ("direct", "woodbury", "auto")
# Rows of Z^T that the ADMM loop updates and projects together: this width
# bounds the loop's block scratch and each projection call's temporaries.
PROJECTION_BLOCK = 256

@dataclass(frozen=True)
class PrecomputedKernel:
    """Thin-SVD factors of the ridge system X^T X + shift*I, reused across all ADMM iterations.

    With X = U S V^T and ridge = s^2/(s^2 + shift):
    (X^T X + shift*I)^{-1} X^T X = V diag(ridge) V^T and
    (X^T X + shift*I)^{-1} = I/shift - V diag(ridge/shift) V^T. No N x N
    matrix is kept.
    """

    vt: np.ndarray     # V^T, r x N
    ridge: np.ndarray  # s^2 / (s^2 + shift), one per singular value


@dataclass
class SolveResult:
    """Feasible coefficient matrix plus the per-iteration residual record.

    ``residual_history[k]`` holds (||C-Z||_F, ||C_k+1 - C_k||_F,
    ||Z_k+1 - Z_k||_F) for iteration k. ``converged`` is True when all three
    fell to <= tol simultaneously within the iteration budget.
    """

    coefficients: np.ndarray
    residual_history: list[tuple[float, float, float]] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations_used(self) -> int:
        return len(self.residual_history)


def _check_shift(shift: float) -> None:
    if not np.isfinite(shift) or shift <= 0:
        raise ConfigError(f"shift must be positive, got {shift}")


def regularized_gram_inverse(x, shift: float, mode: str = "auto") -> np.ndarray:
    """Return (X^T X + shift*I)^{-1} for a D x N data matrix.

    mode "direct" inverts the N x N system; "woodbury" rewrites it as
    (1/shift)*I - (1/shift)^2 * X^T (I_D + (1/shift) X X^T)^{-1} X, inverting
    a D x D system instead; "auto" picks woodbury exactly when D < N. The
    inner D x D system is positive definite for any shift > 0.
    """
    x = as_data_matrix(x)
    _check_shift(shift)
    if mode not in GRAM_INVERSE_MODES:
        raise ConfigError(f"mode must be one of {GRAM_INVERSE_MODES}, got {mode!r}")
    d, n = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "woodbury" or (mode == "auto" and d < n):
            inner = np.eye(d) + (x @ x.T) / shift
            solved = np.linalg.solve(inner, x)
            result = np.eye(n) / shift - (x.T @ solved) / shift**2
        else:
            result = np.linalg.inv(x.T @ x + shift * np.eye(n))
    if not np.all(np.isfinite(result)):
        raise NumericError("regularized Gram inverse overflowed; rescale the data")
    return result


def precompute_kernel(x, shift: float) -> PrecomputedKernel:
    """Factor the ridge system of a D x N data matrix by one thin SVD."""
    x = as_data_matrix(x)
    _check_shift(shift)
    try:
        _, singular, vt = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD of the data matrix failed: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        squared = singular**2
        ridge = squared / (squared + shift)
    if not np.all(np.isfinite(ridge)):
        raise NumericError("ridge kernel factors are non-finite; rescale the data")
    return PrecomputedKernel(vt, ridge)


@single_blas_thread()
def solve_lsr(x, lam: float) -> np.ndarray:
    """Closed-form ridge self-expression C = (X^T X + lam*I)^{-1} X^T X = V diag(ridge) V^T."""
    x = as_data_matrix(x)
    if not np.isfinite(lam) or lam <= 0:
        raise ConfigError(f"lam must be positive, got {lam}")
    kernel = precompute_kernel(x, lam)
    return kernel.vt.T @ (kernel.ridge[:, None] * kernel.vt)


def _c_step_factor(kernel: PrecomputedKernel, vty: np.ndarray, weight: float) -> np.ndarray:
    """W = diag(ridge)(V^T - weight V^T Y), with which the C-step is C = weight * Y + V W.

    C = (X^T X + shift*I)^{-1} (X^T X + rho/2 Y), Y = Z + U, weight = rho/(2*shift).
    """
    return kernel.ridge[:, None] * (kernel.vt - weight * vty)


def _project_off_diagonal(v: np.ndarray, s: float, offset: int = 0) -> np.ndarray:
    """Project each column j of v, without its entry offset + j, onto the scale-s simplex.

    Overwrites that entry (the diagonal, for offset 0 on a square v) with a
    value more than s below the column's others: it projects to 0, and the
    rest of the column to its projection without it, bit for bit. A
    non-finite column minimum or left-out entry makes the value NaN or -inf,
    and the projection raises.
    """
    cols = np.arange(v.shape[1])
    low = v.min(axis=0)
    # Without |low|, low - (s + 1) can round back to low (2**54 - 1.5 ==
    # 2**54) or come within the rounding error of the column's sums; 0 * a
    # non-finite entry is NaN.
    with np.errstate(invalid="ignore", over="ignore"):
        v[offset + cols, cols] = low - np.abs(low) - (s + 1.0) + 0.0 * v[offset + cols, cols]
    return project_columns_scaled_simplex(v, s)


def _split_norm(dense_sq: float, vt_dense: np.ndarray, factor: np.ndarray, weights=1.0) -> float:
    """||(I - V V^T) D + V (weights * (V^T D + F))||_F from ||D||_F^2, V^T D and F.

    By V^T V = I its square is (||D||^2 - ||V^T D||^2) + ||weights * (V^T D + F)||^2,
    which cancels far less than ||D||^2 + 2<V^T D, F> + ||F||^2 (weights 1).
    """
    outside = dense_sq - np.vdot(vt_dense, vt_dense)  # >= 0 up to rounding; NaN stays NaN
    inside = weights * (vt_dense + factor)
    return float(np.sqrt(max(outside, 0.0) + np.vdot(inside, inside)))


# Per constrained model: whether lam rides on the C-step (in the ridge shift)
# rather than on the Z-step (as a scale of its input), and the Z-step
# projection of Z's columns start, start + 1, ...; it names this module's
# globals, looked up at call time, so that a tracer can swap them.
_ADMM_MODELS = {
    "nlsr": (True, lambda v, cfg, start: project_nonneg(v)),
    "slsr": (False, lambda v, cfg, start: project_columns_scaled_affine(v, cfg.s)),
    "ssrsc": (
        False,
        lambda v, cfg, start: (
            _project_off_diagonal(v, cfg.s, start)
            if cfg.zero_diagonal
            else project_columns_scaled_simplex(v, cfg.s)
        ),
    ),
}


def _solve_admm(x, cfg: SolverConfig, model: str) -> SolveResult:
    """ADMM for a constrained model in scaled form on Z^T, S^T and r x N factors.

    All iterates start at zero (see the module docstring for the algebra).
    Stops when the three residuals are simultaneously <= tol, or after
    max_iters iterations. Returns Z, the iterate that satisfies the model's
    constraints exactly, as the transpose of the C-ordered Z^T. Raises
    DivergenceError when an iterate turns non-finite.
    """
    if cfg.model != model:
        raise ConfigError(f"solve_{model} requires model {model!r}, got {cfg.model!r}")
    x = as_data_matrix(x)
    n = x.shape[1]
    if cfg.zero_diagonal and n < 2:
        raise ConfigError("zero_diagonal needs at least 2 points to keep columns feasible")
    lam_on_c_step, project = _ADMM_MODELS[model]
    if lam_on_c_step:
        shift, scale = 0.5 * (2.0 * cfg.lam + cfg.rho), 1.0
    else:
        shift, scale = 0.5 * cfg.rho, cfg.rho / (2.0 * cfg.lam + cfg.rho)
    a = 0.5 * cfg.rho / shift  # exactly 1 for ssrsc and slsr: their S-terms drop out
    with single_blas_thread():
        kernel = precompute_kernel(x, shift)
        vt = kernel.vt
        zt, st = np.zeros((n, n)), np.zeros((n, n))
        p, r, m = (np.zeros_like(vt) for _ in range(3))
        # One block's scratch, reused: fresh pages for every block cost more
        # than the arithmetic at N = 400. nlsr (a != 1) keeps h there too.
        buffers = np.empty((2 if a == 1.0 else 3, min(n, PROJECTION_BLOCK), n))
        # C_0 = 0 and C_1 = V diag(ridge) V^T; after that, C_k+1 - C_k =
        # a (I - V diag(ridge) V^T)(Y_k - Y_k-1), Y = Z + U, whose dense
        # part the previous iteration's blocks measure.
        c_change = float(np.linalg.norm(kernel.ridge))
        history: list[tuple[float, float, float]] = []
        converged = False
        for _ in range(cfg.max_iters):
            w = _c_step_factor(kernel, p + r + m, a)
            f = w if a == 1.0 else (a - 1.0) * m + w
            dense_sq = np.zeros(3)  # ||Z_new - Z||^2, ||S_new - S||^2, ||their sum||^2
            for start in range(0, n, PROJECTION_BLOCK):
                rows = slice(start, start + PROJECTION_BLOCK)
                v, ds, *spare = buffers[:, : min(PROJECTION_BLOCK, n - start)]
                if a == 1.0:
                    h = zt[rows]
                else:  # h = a * Z^T + (a - 1) * S^T
                    (h,) = spare
                    np.add(np.multiply(zt[rows], a, out=h), np.multiply(st[rows], a - 1.0, out=ds), out=h)
                np.matmul(f[:, rows].T, vt, out=v)  # rows of (C - U)^T = h + f^T V^T
                v += h
                if scale != 1.0:
                    v *= scale
                # The projection's finiteness scan is the loop's only one.
                try:
                    z_next = project(v.T, cfg, start).T
                except NumericError as exc:
                    raise DivergenceError("ADMM iterates became non-finite") from exc
                s_next = np.subtract(z_next, h, out=v)
                dz = s_next if a == 1.0 else np.subtract(z_next, zt[rows], out=h)  # h is spent
                np.subtract(s_next, st[rows], out=ds)
                dense_sq[:2] += np.vdot(dz, dz), np.vdot(ds, ds)
                ds += dz
                dense_sq[2] += np.vdot(ds, ds)
                st[rows], zt[rows] = s_next, z_next
                del h, z_next, s_next, dz  # else they outlive the next block's
            p_next = vt @ zt.T
            dp, dm = p_next - p, -(a * m + w)
            dr = dp - r if a == 1.0 else p_next - a * (p + r)
            row = (_split_norm(dense_sq[1], dr, dm), c_change, float(np.sqrt(dense_sq[0])))
            if not np.all(np.isfinite(row)):
                raise DivergenceError("ADMM iterates became non-finite")
            history.append(row)
            c_change = a * _split_norm(dense_sq[2], dp + dr, dm, 1.0 - kernel.ridge[:, None])
            p, r, m = p_next, r + dr, m + dm
            converged = max(row) <= cfg.tol
            if converged:
                break
    return SolveResult(coefficients=zt.T, residual_history=history, converged=converged)


def solve_ssrsc(x, cfg: SolverConfig) -> SolveResult:
    """ADMM with scale-s simplex columns; with cfg.zero_diagonal also a zero diagonal."""
    return _solve_admm(x, cfg, "ssrsc")


def solve_nlsr(x, cfg: SolverConfig) -> SolveResult:
    """ADMM with non-negative coefficients (lam on the C-step, a clip as the Z-step)."""
    return _solve_admm(x, cfg, "nlsr")


def solve_slsr(x, cfg: SolverConfig) -> SolveResult:
    """ADMM with columns summing to s (a uniform shift as the Z-step; entries may go negative)."""
    return _solve_admm(x, cfg, "slsr")


def solve(x, cfg: SolverConfig) -> SolveResult:
    """Run the solver selected by cfg.model on a D x N data matrix."""
    if cfg.model == "lsr":
        return SolveResult(coefficients=solve_lsr(x, cfg.lam), converged=True)
    return _solve_admm(x, cfg, cfg.model)
