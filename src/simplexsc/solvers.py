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
P = V^T Z and R = V^T S. Each 256-row block of Z^T is one task: a GEMM for
its rows of C - U, the projection in place in the task's scratch, its rows
of Z^T and S^T, three partial squared norms and its columns of P; the
residuals come from the blocks' norms, added in block order, and O(rN)
factor terms.

ssrsc's Z is sparse and non-negative. So from ``SPARSE_EIGEN_MIN_N`` points
on (the spectral stage's threshold), ssrsc keeps Z^T and S^T as lists of
CSR row blocks, and a task passes a block's dense form only through its
scratch: it adds h = Z^T[rows] at its stored entries after the GEMM,
extracts the projection's positive entries with one scan, forms S^T and the
squared norms on the union of the stored entries, and P's columns as
(Z^T[rows] V)^T. A block that CSR would store in more memory than a dense
array is kept dense. The solve then returns Z as a ``scipy.sparse``
CSC array, the transpose of the stacked Z^T, in O(nnz + threads * 256 * N)
memory; its projections warm-start the shift search from the previous
iteration's supports. Z and the residuals agree with the dense loop's to
rounding, as only the order of the sums differs.

Solves run on one BLAS thread (see ``blas``), so their bits do not depend on
the BLAS thread count. A solve of 4 blocks or more spreads its block tasks
over helper threads (``_block_threads``); a task computes the same bits on
any thread, so Z and the residual history do not depend on the number of
threads either.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import spectral
from .blas import single_blas_thread
from .core import ConfigError, DivergenceError, NumericError, SolverConfig, as_data_matrix
from .projections import TOP_M, project_columns_scaled_affine, project_columns_scaled_simplex, project_nonneg

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

    coefficients: np.ndarray | scipy.sparse.csc_array
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


def _project_off_diagonal(v: np.ndarray, s: float, offset: int = 0, **buffers) -> np.ndarray:
    """Project each column j of v, without its entry offset + j, onto the scale-s simplex.

    Overwrites that entry (the diagonal, for offset 0 on a square v) with a
    value more than s below the column's others: it projects to 0, and the
    rest of the column to its projection without it, bit for bit. A
    non-finite column minimum or left-out entry makes the value NaN or -inf,
    and the projection raises. ``buffers`` (out, scratch, top_m) go to the projection.
    """
    cols = np.arange(v.shape[1])
    low = v.min(axis=0)
    # Without |low|, low - (s + 1) can round back to low (2**54 - 1.5 ==
    # 2**54) or come within the rounding error of the column's sums; 0 * a
    # non-finite entry is NaN.
    with np.errstate(invalid="ignore", over="ignore"):
        v[offset + cols, cols] = low - np.abs(low) - (s + 1.0) + 0.0 * v[offset + cols, cols]
    return project_columns_scaled_simplex(v, s, **buffers)


def _split_norm(dense_sq: float, vt_dense: np.ndarray, factor: np.ndarray, weights=1.0) -> float:
    """||(I - V V^T) D + V (weights * (V^T D + F))||_F from ||D||_F^2, V^T D and F.

    By V^T V = I its square is (||D||^2 - ||V^T D||^2) + ||weights * (V^T D + F)||^2,
    which cancels far less than ||D||^2 + 2<V^T D, F> + ||F||^2 (weights 1).
    """
    outside = dense_sq - np.vdot(vt_dense, vt_dense)  # >= 0 up to rounding; NaN stays NaN
    inside = weights * (vt_dense + factor)
    return float(np.sqrt(max(outside, 0.0) + np.vdot(inside, inside)))


# Per constrained model: whether lam rides on the C-step (in the ridge shift)
# rather than on the Z-step (as a scale of its input), and the Z-step: it
# projects Z's columns start, start + 1, ... of v in place, ssrsc with the
# block-sized scratch and, from the CSR loop, the first candidate count of
# its shift search. It names this module's globals, looked up at call time,
# so that a tracer can swap them.
_ADMM_MODELS = {
    "nlsr": (True, lambda v, cfg, start, scratch: project_nonneg(v, out=v)),
    "slsr": (False, lambda v, cfg, start, scratch: project_columns_scaled_affine(v, cfg.s, out=v)),
    "ssrsc": (
        False,
        lambda v, cfg, start, scratch, top_m=TOP_M: (
            _project_off_diagonal(v, cfg.s, start, out=v, scratch=scratch, top_m=top_m)
            if cfg.zero_diagonal
            else project_columns_scaled_simplex(v, cfg.s, out=v, scratch=scratch, top_m=top_m)
        ),
    ),
}


def _block_threads(n: int) -> int:
    """Threads for the row blocks of an N-point solve; 1 runs them on the caller's.

    One per core that this process may run on, but few enough that their
    scratch (two blocks each) holds no more than one N x N array: the
    N=1200 default solve peaked at 3.4-3.5 N^2 doubles on two threads. So a
    solve of fewer than 4 blocks (N < 1024) stays serial.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cores, n // (2 * PROJECTION_BLOCK)))


@contextmanager
def _block_runner(threads: int, scratch_shape: tuple[int, ...]):
    """Yield run(task, blocks), which returns [task(rows, scratch) for rows in blocks].

    With one thread the tasks run on the caller's, with one scratch array.
    Otherwise they run on a pool of that many helper threads, each of which
    owns one scratch array; every helper is joined before the block exits,
    also on an exception, and the blocks not yet started are dropped.
    """
    if threads == 1:
        scratch = np.empty(scratch_shape)
        yield lambda task, blocks: [task(rows, scratch) for rows in blocks]
        del scratch  # the caller may hold run past the block
        return
    from concurrent.futures import ThreadPoolExecutor  # serial solves skip the import

    owned = threading.local()

    def allocate() -> None:
        owned.scratch = np.empty(scratch_shape)

    def with_scratch(task, rows):
        return task(rows, owned.scratch)

    def run(task, blocks):
        futures = [pool.submit(with_scratch, task, rows) for rows in blocks]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()

    with ThreadPoolExecutor(threads, thread_name_prefix="simplexsc-admm", initializer=allocate) as pool:
        yield run


# A row block of the CSR loop's Z^T or S^T is a CSR array (8 bytes of value
# and 4 of index an entry) or, when more than 2/3 of its entries are stored,
# a dense array, which then takes less memory.
def _denser_than_csr(count: int, size: int) -> bool:
    return 3 * count > 2 * size


def _entries(block) -> tuple[np.ndarray | None, np.ndarray]:
    """A row block's flat positions in its C-ordered dense form (None: all of them) and values."""
    if isinstance(block, np.ndarray):
        return None, block.reshape(-1)
    starts = np.arange(0, block.shape[0] * block.shape[1], block.shape[1])
    return np.repeat(starts, np.diff(block.indptr)) + block.indices, block.data


def _apply(ufunc, flat: np.ndarray, entries: tuple[np.ndarray | None, np.ndarray]) -> None:
    """flat = ufunc(flat, block) in place, at the block's entries: the bits of the dense operation."""
    positions, values = entries
    if positions is None:
        ufunc(flat, values, out=flat)
    else:
        flat[positions] = ufunc(flat[positions], values)


def _union(size: int, *positions: np.ndarray | None) -> np.ndarray | None:
    """The sorted union of flat positions, or None if a block is dense or the union dense enough to be."""
    if any(p is None for p in positions):
        return None
    mask = np.zeros(size, dtype=bool)
    for p in positions:
        mask[p] = True
    union = np.flatnonzero(mask)
    return None if _denser_than_csr(union.size, size) else union


def _csr_block(positions: np.ndarray, values: np.ndarray, shape: tuple[int, int]) -> scipy.sparse.csr_array:
    """The CSR block of that shape with values at sorted flat positions of its C-ordered form.

    Its indices are 32-bit: a block of PROJECTION_BLOCK rows has fewer than
    2**31 entries below 8 million points.
    """
    indptr = np.searchsorted(positions, np.arange(0, shape[0] * shape[1] + 1, shape[1])).astype(np.int32)
    indices = np.remainder(positions, shape[1], dtype=np.int32, casting="unsafe")
    return scipy.sparse.csr_array((values, indices, indptr), shape=shape)


def _row_block(v: np.ndarray, dense: bool = True):
    """The nonzero entries of a C-ordered block: v itself if ``dense`` and that takes less memory, else CSR."""
    flat = v.reshape(-1)
    nonzero = flat != 0  # with it, np.flatnonzero runs 4x faster than on the floats
    if dense and _denser_than_csr(np.count_nonzero(nonzero), flat.size):
        return v
    positions = np.flatnonzero(nonzero)
    return _csr_block(positions, flat[positions], v.shape)


def _stacked(blocks: list) -> scipy.sparse.csr_array:
    """The CSR loop's row blocks of Z^T stacked into one CSR array; converts dense blocks in place."""
    for i in range(len(blocks)):
        if isinstance(blocks[i], np.ndarray):
            blocks[i] = _row_block(blocks[i], dense=False)
    return scipy.sparse.vstack(blocks, format="csr")


def _largest_row_support(block) -> int:
    """The most nonzero entries in one row of a row block."""
    if isinstance(block, np.ndarray):
        return int(np.count_nonzero(block, axis=1).max())
    return int(np.diff(block.indptr).max())


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
    blocks = [slice(start, min(start + PROJECTION_BLOCK, n)) for start in range(0, n, PROJECTION_BLOCK)]
    with single_blas_thread():
        kernel = precompute_kernel(x, shift)
        vt = kernel.vt
        # ssrsc's Z is sparse and non-negative: from SPARSE_EIGEN_MIN_N
        # points on, Z^T and S^T are lists of CSR row blocks.
        sparse = model == "ssrsc" and n >= spectral.SPARSE_EIGEN_MIN_N
        if sparse:
            zt = [scipy.sparse.csr_array((rows.stop - rows.start, n)) for rows in blocks]
            st = list(zt)  # the blocks are replaced, never written in place
            v_rows = np.ascontiguousarray(vt.T)
        else:
            zt, st = np.zeros((n, n)), np.zeros((n, n))
        p, r, m = (np.zeros_like(vt) for _ in range(3))
        # C_0 = 0 and C_1 = V diag(ridge) V^T; after that, C_k+1 - C_k =
        # a (I - V diag(ridge) V^T)(Y_k - Y_k-1), Y = Z + U, whose dense
        # part the previous iteration's blocks measure.
        c_change = float(np.linalg.norm(kernel.ridge))
        history: list[tuple[float, float, float]] = []
        converged = False
        # Each block task reuses a (2, block, N) scratch: fresh pages for
        # every block cost more than the arithmetic at N = 400.
        with _block_runner(_block_threads(n), (2, min(n, PROJECTION_BLOCK), n)) as run:
            for _ in range(cfg.max_iters):
                w = _c_step_factor(kernel, p + r + m, a)
                f = w if a == 1.0 else (a - 1.0) * m + w
                p_next = np.empty_like(vt)

                def update(rows: slice, scratch: np.ndarray) -> list:
                    """Z-step and dual step on one row block; its squared changes and columns of P."""
                    v, spare = scratch[:, : rows.stop - rows.start]
                    if a == 1.0:
                        h = zt[rows]
                    else:  # h = a * Z^T + (a - 1) * S^T, with v as the temporary
                        h = np.multiply(zt[rows], a, out=spare)
                        h += np.multiply(st[rows], a - 1.0, out=v)
                    np.matmul(f[:, rows].T, vt, out=v)  # rows of (C - U)^T = h + f^T V^T
                    v += h
                    if scale != 1.0:
                        v *= scale
                    # In place on v; ssrsc (a = 1, so h is not in spare) uses
                    # spare as scratch. Its finiteness scan is the loop's only one.
                    try:
                        z_next = project(v.T, cfg, rows.start, spare).T
                    except NumericError as exc:
                        raise DivergenceError("ADMM iterates became non-finite") from exc
                    s_next = np.subtract(z_next, h, out=spare)  # h is spent
                    # Until the stores, the rows of Z^T (nlsr) and S^T hold the changes.
                    dz = s_next if a == 1.0 else np.subtract(z_next, zt[rows], out=zt[rows])
                    ds = np.subtract(s_next, st[rows], out=st[rows])
                    squares = [np.vdot(dz, dz), np.vdot(ds, ds)]  # ||Z_new - Z||^2, ||S_new - S||^2
                    ds += dz
                    squares.append(np.vdot(ds, ds))  # ||their sum||^2
                    st[rows], zt[rows] = s_next, z_next
                    p_next[:, rows] = vt @ zt[rows].T
                    return squares

                def update_sparse(rows: slice, scratch: np.ndarray) -> list:
                    """The step of update on one row block of the CSR loop's Z^T and S^T (ssrsc: a = 1).

                    The block's dense forms pass through v alone: every
                    operation on Z^T and S^T touches only their stored entries,
                    with the dense operation's bits.
                    """
                    block = rows.start // PROJECTION_BLOCK
                    z_old, s_old = zt[block], st[block]
                    v, spare = scratch[:, : rows.stop - rows.start]
                    np.matmul(f[:, rows].T, vt, out=v)
                    flat = v.reshape(-1)
                    _apply(np.add, flat, old := _entries(z_old))  # + h
                    v *= scale
                    # Warm start: the shift search's first pass takes one
                    # candidate more than the block's largest previous support.
                    support = _largest_row_support(z_old)
                    try:
                        project(v.T, cfg, rows.start, spare, support + 1 if support else TOP_M)
                    except NumericError as exc:
                        raise DivergenceError("ADMM iterates became non-finite") from exc
                    z_new = _row_block(v)
                    if z_new is v:  # the scratch
                        z_new = v.copy()
                    s_entries = _entries(s_old)
                    union = _union(flat.size, _entries(z_new)[0], old[0], s_entries[0])
                    _apply(np.subtract, flat, old)  # v = S_new = Z_new - Z_old, also the change in Z
                    s_next = flat.copy() if union is None else flat[union]
                    _apply(np.subtract, flat, s_entries)  # v = S_new - S_old
                    ds = flat if union is None else flat[union]
                    squares = [np.vdot(s_next, s_next), np.vdot(ds, ds)]
                    ds += s_next
                    squares.append(np.vdot(ds, ds))
                    if union is None:
                        s_new = _row_block(s_next.reshape(v.shape))
                    else:
                        stored = s_next != 0
                        s_new = _csr_block(union[stored], s_next[stored], v.shape)
                    zt[block], st[block] = z_new, s_new
                    p_next[:, rows] = (z_new @ v_rows).T
                    return squares

                dense_sq = np.zeros(3)
                # Summed in block order, whatever ran them.
                for squares in run(update_sparse if sparse else update, blocks):
                    dense_sq += squares
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
        if sparse:
            st.clear()  # room for stacking Z^T's blocks
            zt = _stacked(zt)
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
