"""Self-expressive coefficient solvers.

Four models share the ridge data term ||X - XC||_F^2 + lam*||.||_F^2 and
differ only in the constraint set:

    lsr    unconstrained (closed form)
    nlsr   C >= 0
    slsr   columns sum to s
    ssrsc  columns on the scale-s simplex (>= 0 and sum to s)

The three constrained models run one ADMM core in scaled form (Boyd et al.
2011): a ridge update of C against the current feasible iterate, a projection
update of Z, and a dual ascent on the scaled multiplier U = Delta/rho. A model
enters the core through a ridge shift, a scale and a projection alone, all
taken from one table. nlsr puts lam on the C-step: shift (2*lam+rho)/2, and Z
is C - U clipped to C >= 0. ssrsc and slsr put it on the Z-step: shift rho/2,
and Z is rho/(2*lam+rho) * (C - U) projected onto the simplex or the
hyperplane; ssrsc with ``zero_diagonal`` first writes each column's diagonal
entry more than s below the column's minimum, which the same simplex
projection then sends to exactly 0 without changing the other entries.

The ridge system X^T X + shift*I is constant, so it is factored once up front
by one thin SVD X = U S V^T (r = min(D, N)):

    (X^T X + shift*I)^{-1} M = M/shift + V diag(1/(s^2+shift) - 1/shift) V^T M

A C-step then costs O(rN^2) per iteration instead of O(N^3); the factors V^T
and s^2/(s^2+shift) are the solvers' only form of the ridge system, and lsr's
closed form is V diag(s^2/(s^2+lam)) V^T. ``regularized_gram_inverse`` builds
the explicit N x N inverse, directly or by the Woodbury identity (a D x D
inversion), as a reference; no solver calls it.

Solves run on one thread and one BLAS thread (see ``blas``), so their bits do
not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blas import single_blas_thread
from .core import (
    ConfigError,
    DivergenceError,
    NumericError,
    SolverConfig,
    as_data_matrix,
)
from .projections import (
    project_columns_scaled_affine,
    project_columns_scaled_simplex,
    project_nonneg,
)

GRAM_INVERSE_MODES = ("direct", "woodbury", "auto")

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


def _c_step(kernel: PrecomputedKernel, z, u, weight: float) -> np.ndarray:
    """(X^T X + shift*I)^{-1} (X^T X + R) with R = rho/2 * (Z + U), U = Delta/rho.

    Through the kernel's factors this is Q + V diag(ridge) (V^T - V^T Q) with
    Q = R/shift = weight * (Z + U), weight = rho/(2*shift): 4rN^2 flops.
    """
    q = np.add(z, u)
    if weight != 1.0:  # ssrsc and slsr have weight 1: no pass over N x N for it
        q *= weight
    inner = kernel.vt @ q
    np.subtract(kernel.vt, inner, out=inner)
    inner *= kernel.ridge[:, None]
    q += kernel.vt.T @ inner
    return q


def _project_off_diagonal(v: np.ndarray, s: float) -> np.ndarray:
    """Project each column of a square v, without its diagonal entry, onto the scale-s simplex.

    Overwrites v's diagonal with a value more than s below the column's
    other entries: it fails the simplex test and projects to 0, and the
    shift and the other entries are those of the column without it, bit for
    bit. A non-finite column minimum makes that value non-finite, and the
    projection raises.
    """
    low = v.min(axis=0)
    # Without |low|, low - (s + 1) can round back to low (2**54 - 1.5 ==
    # 2**54) or come within the rounding error of the column's sums.
    with np.errstate(invalid="ignore", over="ignore"):
        np.fill_diagonal(v, low - np.abs(low) - (s + 1.0))
    return project_columns_scaled_simplex(v, s)


# Per constrained model: whether lam rides on the C-step (in the ridge shift)
# rather than on the Z-step (as a scale of its input), and the Z-step
# projection. The projections name this module's globals, looked up at call
# time, so that a tracer can swap them.
_ADMM_MODELS = {
    "nlsr": (True, lambda v, cfg: project_nonneg(v)),
    "slsr": (False, lambda v, cfg: project_columns_scaled_affine(v, cfg.s)),
    "ssrsc": (
        False,
        lambda v, cfg: (
            _project_off_diagonal(v, cfg.s)
            if cfg.zero_diagonal
            else project_columns_scaled_simplex(v, cfg.s)
        ),
    ),
}


def _solve_admm(x, cfg: SolverConfig, model: str) -> SolveResult:
    """ADMM for a constrained model in scaled form: ridge C-step, projection Z-step, dual ascent.

    The multiplier is kept scaled, U = Delta/rho (Boyd et al. 2011, sec. 3.1.1).
    All three iterates start at zero. The Z-step projects scale * (C - U) and
    the dual step is U += Z - C. Stops when the equality gap and both
    successive-change residuals are simultaneously <= tol, or after max_iters
    iterations. Returns Z, the iterate that satisfies the model's constraints
    exactly. Raises DivergenceError when an iterate turns non-finite.
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
    weight = 0.5 * cfg.rho / shift
    with single_blas_thread():
        kernel = precompute_kernel(x, shift)
        c = np.zeros((n, n))
        z = np.zeros((n, n))
        u = np.zeros((n, n))
        history: list[tuple[float, float, float]] = []
        converged = False
        for _ in range(cfg.max_iters):
            c_next = _c_step(kernel, z, u, weight)
            # The residuals, the Z-step input and the dual step take no new
            # N x N array (a fresh one costs its page zeroing, ~7 ms at
            # N = 3000): the previous C's array holds C_k - C_k+1, then
            # scale * (C - U), then Z - C (every projection returns a new
            # array), and is freed before the next C-step; the previous Z's
            # holds Z_k - Z_k+1. a - b is exactly -(b - a), so the norms are
            # unchanged.
            c_change = float(np.linalg.norm(np.subtract(c, c_next, out=c)))
            v = np.subtract(c_next, u, out=c)
            c = c_next
            v *= scale
            # The projection's finiteness scan is the loop's only one; the
            # zero-diagonal projection overwrites the diagonal, whose
            # non-finite entries then show in the gap.
            try:
                z_next = project(v, cfg)
            except NumericError as exc:
                raise DivergenceError("ADMM iterates became non-finite") from exc
            step = np.subtract(z_next, c, out=v)
            gap = float(np.linalg.norm(step))
            if not np.isfinite(gap):
                raise DivergenceError("ADMM iterates became non-finite")
            u += step
            del v, step
            z_change = float(np.linalg.norm(np.subtract(z, z_next, out=z)))
            z = z_next
            history.append((gap, c_change, z_change))
            if max(history[-1]) <= cfg.tol:
                converged = True
                break
    return SolveResult(coefficients=z, residual_history=history, converged=converged)


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
        return SolveResult(
            coefficients=solve_lsr(x, cfg.lam),
            residual_history=[],
            converged=True,
        )
    return _solve_admm(x, cfg, cfg.model)
