"""Self-expressive coefficient solvers.

Four models share the ridge data term ||X - XC||_F^2 + lam*||.||_F^2 and
differ only in the constraint set:

    lsr    unconstrained (closed form)
    nlsr   C >= 0
    slsr   columns sum to s
    ssrsc  columns on the scale-s simplex (>= 0 and sum to s)

The three constrained models run one ADMM core in scaled form (Boyd et al.
2011): a ridge update of C with shift rho/2, a projection update of Z and a
dual ascent on U = Delta/rho. lam rides on the Z-step: it projects
rho/(2*lam+rho) * (C - U), the exact prox of lam*||Z||_F^2 on each
constraint set, so a model enters the core through its projection alone
(one table): nlsr clips onto Z >= 0, slsr shifts onto the hyperplane and
ssrsc projects onto the simplex; ssrsc with ``zero_diagonal`` first writes
each column's diagonal entry more than s below the column's minimum, which
the same simplex projection sends to exactly 0 without changing the other
entries.

cfg.rho is the starting penalty. Between iterations k and k+1, for
5 <= k < max_iters, residual balancing (Boyd et al. 2011, section 3.4.1)
doubles rho when the primal residual ||C - Z|| exceeds 10 times the dual
rho*||Z_k+1 - Z_k||, and halves it in the opposite case; so a solve of at
most 5 iterations, the default, keeps the fixed-rho iterates bit for bit.
rho stays at most 4*cfg.rho: the stopping test reads ||Z_k+1 - Z_k||
without rho, so a larger rho loosens it, and uncapped, rho reached 8-16 on
the acceptance fixture with ssrsc's Frank-Wolfe gap at 0.8-2.4e-3 of f.

From the sixth iteration on (the same start, so again every solve of at
most 5 iterations keeps its bits), the Z-step and the dual step take the
over-relaxed C_hat = alpha*C + (1 - alpha)*Z_k in place of C (Boyd et al.
2011, section 3.4.3), with alpha = RELAXATION = 1.6, the default of the OSQP
solver, which also adapts rho. To tol 0.01 it cut ssrsc at N=400 from 167
to 106 iterations, the zero-diagonal fixture from 94 to 67, nlsr from 41 to
32 and slsr from 20 to 15. alpha = 1.8 cut ssrsc to 96 but took nlsr's
worst optimality certificate on the acceptance fixtures from 1.5e-4 to
1.95e-4. The residuals keep their meaning: ||C - Z|| is measured with the
unrelaxed C.

The ridge system X^T X + shift*I is factored once by one thin SVD
X = U S V^T (r = min(D, N)) into V^T, s^2 and ridge = s^2/(s^2+shift);
lsr's closed form is V diag(ridge) V^T, and ``regularized_gram_inverse``
builds the explicit inverse only as a reference. A change of rho takes the
new shift's ridge from s^2, in O(r), and multiplies the scaled dual by
rho_old/rho_new in place, so no solve factors twice. With V^T V = I,
neither C nor U is ever formed: U = S + V M and C = Z + S + V(M + W), W
from ``_c_step_factor``. So the Z-step projects (a scaled)
C_hat - U = Z + (alpha - 1) S + V((alpha - 1) M + alpha W), and the dual
step gives S_new = (Z_new - Z) - (alpha - 1) S and
M_new = (1 - alpha) M - alpha W; at alpha = 1, C - U = Z + V W,
S_new = Z_new - Z and M_new = -W.
The loop keeps two N x N arrays, Z^T and S^T (one row per point), and the
r x N M, P = V^T Z and R = V^T S. Each 256-row block of Z^T is one task: a
GEMM for its rows of C_hat - U, the projection in place in the task's
scratch, its rows of Z^T and S^T, three partial squared norms
(``_squares``) and its columns of P; the residuals come from the blocks'
norms, added in block order, and O(rN) factor terms.

ssrsc's Z is sparse and non-negative, and ADMM's supports barely move. So
a ssrsc solve of more than one row block (N > ``PROJECTION_BLOCK``) keeps
Z^T and S^T as lists of row blocks held as entries (sorted flat positions
and values), and a task passes a block's dense form only through its
scratch: it adds Z^T[rows] and (alpha - 1) S^T[rows] at their entries
after the GEMM, and from the second iteration on the projection screens
each column with its previous support (see ``projections``) and returns the
positive entries, with no partition and no scan of the block. S^T and the
squared norms come from the entries at the union of the three blocks'
positions (relaxed, S^T keeps every entry Z has had, as S_new = dZ -
(alpha - 1) S, so the union is mostly S^T's own entries), and P's columns
from scipy's CSR product on the entries. A block denser than its entries
(a degenerate input, such as every point the same, or an early iterate at
lam >= 1) is kept as a dense array and takes the dense loop's step in
place. Z comes back as a ``scipy.sparse`` CSC array, the transpose of the
stacked Z^T, from ``SPARSE_EIGEN_MIN_N`` points on (the spectral stage's
threshold), and as a dense array below; such a solve needs
O(nnz + threads * 256 * N) memory until then. Z and the residuals agree
with the dense loop's to rounding: the order of the sums differs, and
relaxed, the dense loop adds (alpha - 1) S by BLAS daxpy.

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
from scipy.linalg.blas import daxpy

from . import spectral
from .blas import single_blas_thread
from .core import ConfigError, DivergenceError, NumericError, SolverConfig, as_data_matrix
from .projections import project_columns_scaled_affine, project_columns_scaled_simplex, project_nonneg

GRAM_INVERSE_MODES = ("direct", "woodbury", "auto")
# Rows of Z^T that the ADMM loop updates and projects together: this width
# bounds the loop's block scratch and each projection call's temporaries.
PROJECTION_BLOCK = 256
# Residual balancing (Boyd et al. 2011, section 3.4.1) between iterations k
# and k+1 for BALANCE_FROM <= k < max_iters: rho is multiplied by
# BALANCE_STEP while the primal residual exceeds BALANCE_RATIO times the
# dual, up to BALANCE_CAP times the configured rho, and divided by it in the
# opposite case.
BALANCE_FROM = 5
BALANCE_RATIO = 10.0
BALANCE_STEP = 2.0
BALANCE_CAP = 4.0
# Over-relaxation (Boyd et al. 2011, section 3.4.3) from iteration
# BALANCE_FROM + 1 on: the Z-step and the dual step take
# RELAXATION * C + (1 - RELAXATION) * Z_k for the C-step's C.
RELAXATION = 1.6

@dataclass(frozen=True)
class PrecomputedKernel:
    """Thin-SVD factors of the ridge system X^T X + shift*I, reused across all ADMM iterations.

    With X = U S V^T and ridge = s^2/(s^2 + shift):
    (X^T X + shift*I)^{-1} X^T X = V diag(ridge) V^T and
    (X^T X + shift*I)^{-1} = I/shift - V diag(ridge/shift) V^T. No N x N
    matrix is kept; the squared singular values give the factors of another
    shift without a second SVD.
    """

    vt: np.ndarray       # V^T, r x N
    ridge: np.ndarray    # s^2 / (s^2 + shift), one per singular value
    squared: np.ndarray  # s^2

    def with_shift(self, shift: float) -> PrecomputedKernel:
        """The factors of X^T X + shift*I, sharing V^T."""
        return PrecomputedKernel(self.vt, self.squared / (self.squared + shift), self.squared)


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
        kernel = PrecomputedKernel(vt, squared / (squared + shift), squared)
    if not np.all(np.isfinite(kernel.ridge)):
        raise NumericError("ridge kernel factors are non-finite; rescale the data")
    return kernel


@single_blas_thread()
def solve_lsr(x, lam: float) -> np.ndarray:
    """Closed-form ridge self-expression C = (X^T X + lam*I)^{-1} X^T X = V diag(ridge) V^T."""
    x = as_data_matrix(x)
    if not np.isfinite(lam) or lam <= 0:
        raise ConfigError(f"lam must be positive, got {lam}")
    kernel = precompute_kernel(x, lam)
    return kernel.vt.T @ (kernel.ridge[:, None] * kernel.vt)


def _c_step_factor(kernel: PrecomputedKernel, vty: np.ndarray) -> np.ndarray:
    """W = diag(ridge)(V^T - V^T Y), with which the C-step is C = Y + V W.

    C = (X^T X + rho/2*I)^{-1} (X^T X + rho/2 Y), Y = Z + U.
    """
    return kernel.ridge[:, None] * (kernel.vt - vty)


def _project_off_diagonal(v: np.ndarray, s: float, offset: int = 0, **buffers) -> np.ndarray:
    """Project each column j of v, without its entry offset + j, onto the scale-s simplex.

    Overwrites that entry (the diagonal, for offset 0 on a square v) with a
    value more than s below the column's others: it projects to 0, and the
    rest of the column to its projection without it, bit for bit. A
    non-finite column minimum or left-out entry makes the value NaN or -inf,
    and the projection raises. ``buffers`` (out, scratch, support) go to the projection.
    """
    cols = np.arange(v.shape[1])
    low = v.min(axis=0)
    # Without |low|, low - (s + 1) can round back to low (2**54 - 1.5 ==
    # 2**54) or come within the rounding error of the column's sums; 0 * a
    # non-finite entry is NaN.
    with np.errstate(invalid="ignore", over="ignore"):
        v[offset + cols, cols] = low - np.abs(low) - (s + 1.0) + 0.0 * v[offset + cols, cols]
    return project_columns_scaled_simplex(v, s, **buffers)


def _split_norm(dense_sq: float, vt_dense: np.ndarray, inside: np.ndarray) -> float:
    """||(I - V V^T) D + V G||_F from ||D||_F^2, V^T D and G.

    By V^T V = I its square is (||D||^2 - ||V^T D||^2) + ||G||^2, which for
    G = V^T D + F cancels far less than ||D||^2 + 2<V^T D, F> + ||F||^2.
    """
    outside = dense_sq - np.vdot(vt_dense, vt_dense)  # >= 0 up to rounding; NaN stays NaN
    return float(np.sqrt(max(outside, 0.0) + np.vdot(inside, inside)))


def _balanced_rho(rho: float, cap: float, primal: float, dual: float) -> float:
    """The penalty after residual balancing: rho, or rho times or over BALANCE_STEP, at most cap."""
    if primal > BALANCE_RATIO * dual:
        return min(rho * BALANCE_STEP, cap)
    if dual > BALANCE_RATIO * primal:
        return rho / BALANCE_STEP
    return rho


def _squares(dz: np.ndarray, gap: np.ndarray, s_new: np.ndarray) -> list:
    """A row block's ||dZ||^2, ||dZ - S||^2 and ||dZ + S_new - S||^2, with dZ = Z_new - Z.

    ``gap`` holds dZ - S and is left holding the last sum.
    """
    squares = [np.vdot(dz, dz), np.vdot(gap, gap)]
    gap += s_new
    squares.append(np.vdot(gap, gap))
    return squares


# Per constrained model, its Z-step: it projects Z's columns start,
# start + 1, ... of v in place, ssrsc with the block-sized scratch and, from
# the sparse loop's second iteration on, the previous supports, with which it
# returns the positive entries instead. It names this module's globals,
# looked up at call time, so that a tracer can swap them.
_ADMM_MODELS = {
    "nlsr": lambda v, cfg, start, scratch: project_nonneg(v, out=v),
    "slsr": lambda v, cfg, start, scratch: project_columns_scaled_affine(v, cfg.s, out=v),
    "ssrsc": lambda v, cfg, start, scratch, support=None: (
        _project_off_diagonal(v, cfg.s, start, out=v, scratch=scratch, support=support)
        if cfg.zero_diagonal
        else project_columns_scaled_simplex(v, cfg.s, out=v, scratch=scratch, support=support)
    ),
}


def _block_threads(n: int) -> int:
    """Threads for the row blocks of an N-point solve; 1 runs them on the caller's.

    One per core that this process may run on, but few enough that their
    scratch (two blocks each) holds no more than one N x N array: on two
    threads the dense loop (nlsr) peaked at 3.1-3.3 N^2 doubles (N=1024
    identical points, and N=1200), and the sparse loop at 3.3 N^2 on the
    identical points, where every block is dense. So a solve of fewer than 4
    blocks (N < 1024) stays serial.
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
    from concurrent.futures import ThreadPoolExecutor

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


def _sparse_route(model: str, n: int) -> bool:
    """Whether a solve keeps Z^T and S^T as row-block entries: ssrsc of more than one row block."""
    return model == "ssrsc" and n > PROJECTION_BLOCK


# A row block of the sparse loop's Z^T or S^T is its entries, the sorted flat
# positions of its nonzeros in the block's C-ordered form and their values
# (12 bytes an entry: the positions are 32-bit, as a block of PROJECTION_BLOCK
# rows has fewer than 2**31 entries below 8 million points), or, when more
# than 2/3 of its entries are nonzero, a dense array, which then takes less
# memory.
NO_ENTRIES = (np.empty(0, dtype=np.int32), np.empty(0))


def _denser_than_entries(count: int, size: int) -> bool:
    return 3 * count > 2 * size


def _apply(ufunc, flat: np.ndarray, block) -> None:
    """flat = ufunc(flat, block) in place, at the block's entries: the bits of the dense operation."""
    if isinstance(block, np.ndarray):
        ufunc(flat, block.reshape(-1), out=flat)
    else:
        positions, values = block
        flat[positions] = ufunc(flat[positions], values)


def _add_scaled(flat: np.ndarray, block, factor: float) -> None:
    """flat += factor * block in place, at the block's entries.

    A dense block takes one BLAS daxpy pass (numpy's multiply and add took
    three times as long), which updates flat in place as it is a contiguous
    float64 view of a scratch block.
    """
    if isinstance(block, np.ndarray):
        daxpy(block.reshape(-1), flat, a=factor)
    else:
        positions, values = block
        positions = positions.astype(np.intp)  # numpy indexes by intp: one conversion, not two
        flat[positions] += factor * values


def _nonzero_entries(v: np.ndarray):
    """The entries of a C-ordered block, or None if it is denser than they are."""
    flat = v.reshape(-1)
    nonzero = flat != 0  # with it, np.flatnonzero runs 4x faster than on the floats
    if _denser_than_entries(np.count_nonzero(nonzero), flat.size):
        return None
    positions = np.flatnonzero(nonzero).astype(np.int32)
    return positions, flat[positions]


def _kept(v: np.ndarray, owned):
    """The row block of the scratch block v: its entries, or a dense array, written into ``owned`` if that is one."""
    entries = _nonzero_entries(v)
    if entries is not None:
        return entries
    if isinstance(owned, np.ndarray):
        np.copyto(owned, v)
        return owned
    return v.copy()


def _rescale(blocks: list, factor: float) -> None:
    """Multiply the sparse loop's row blocks by factor in place: their values, or the dense blocks."""
    for block in blocks:
        values = block if isinstance(block, np.ndarray) else block[1]
        values *= factor


def _at(flat: np.ndarray, union: np.ndarray, block) -> np.ndarray:
    """A row block's values at a sorted union of positions that holds its entries, 0 elsewhere.

    They are looked up through flat. Relaxed, S^T's entries are the union of
    every earlier support, which then is mostly the whole union, and its
    values are the answer.
    """
    positions, values = block
    if positions.size == union.size:
        return values
    flat[union] = 0.0
    flat[positions] = values
    return flat[union]


def _squared_norm(blocks) -> float:
    """||S||_F^2 of the loop's S^T: an N x N array, or the sparse loop's row blocks."""
    if isinstance(blocks, np.ndarray):
        return float(np.vdot(blocks, blocks))
    return float(sum(np.vdot(b, b) if isinstance(b, np.ndarray) else np.vdot(b[1], b[1]) for b in blocks))


def _union(*positions: np.ndarray) -> np.ndarray:
    """The sorted union of sorted position arrays (a stable sort merges the runs)."""
    merged = np.concatenate(positions)
    merged.sort(kind="stable")
    keep = np.empty(merged.size, dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def _times(block, v_rows: np.ndarray, count: int) -> np.ndarray:
    """The product of a row block of count rows and V (N x r): a GEMM, or a CSR product on its entries."""
    if isinstance(block, np.ndarray):
        return block @ v_rows
    positions, values = block
    n = v_rows.shape[0]
    indptr = np.searchsorted(positions, np.arange(0, count * n + 1, n)).astype(np.int32)
    return scipy.sparse.csr_array((values, np.remainder(positions, n), indptr), shape=(count, n)) @ v_rows


def _assembled(blocks: list, n: int, sparse: bool):
    """Z from the sparse loop's row blocks of Z^T, which it drops as it goes.

    A ``scipy.sparse`` CSC array (the transpose of CSR Z^T) if ``sparse``,
    else the transpose of CSR Z^T's dense C-ordered form.
    """
    nnz = sum(np.count_nonzero(b) if isinstance(b, np.ndarray) else b[0].size for b in blocks)
    index = np.int32 if nnz < 2**31 else np.int64
    data, indices, indptr = np.empty(nnz), np.empty(nnz, dtype=index), np.zeros(n + 1, dtype=index)
    at = 0
    for i, block in enumerate(blocks):
        if isinstance(block, np.ndarray):
            positions = np.flatnonzero(block)
            np.take(block, positions, out=data[at : at + positions.size])
        else:
            positions, values = block
            data[at : at + positions.size] = values
        first, count = i * PROJECTION_BLOCK, min(PROJECTION_BLOCK, n - i * PROJECTION_BLOCK)
        indptr[first + 1 : first + count + 1] = at + np.searchsorted(positions, np.arange(n, count * n + 1, n))
        np.remainder(positions, n, out=indices[at : at + positions.size], casting="unsafe")
        at += positions.size
        blocks[i] = block = None
    zt = scipy.sparse.csr_array((data, indices, indptr), shape=(n, n))
    return zt.T if sparse else zt.toarray().T


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
    project = _ADMM_MODELS[model]
    rho = cfg.rho
    scale = rho / (2.0 * cfg.lam + rho)
    blocks = [slice(start, min(start + PROJECTION_BLOCK, n)) for start in range(0, n, PROJECTION_BLOCK)]
    with single_blas_thread():
        kernel = precompute_kernel(x, 0.5 * rho)
        vt = kernel.vt
        # ssrsc's Z is sparse and non-negative: from two row blocks on, Z^T
        # and S^T are lists of row blocks, most of them entries.
        sparse = _sparse_route(model, n)
        if sparse:
            zt = [NO_ENTRIES] * len(blocks)
            st = list(zt)
            v_rows = np.ascontiguousarray(vt.T)
        else:
            zt, st = np.zeros((n, n)), np.zeros((n, n))
        p, r, m = (np.zeros_like(vt) for _ in range(3))
        # C_0 = 0 and C_1 = V diag(ridge) V^T; after that, C_k+1 - C_k =
        # (I - V diag(ridge) V^T)(Y_k - Y_k-1), Y = Z + U, whose dense
        # part the previous iteration's blocks measure.
        c_change = float(np.linalg.norm(kernel.ridge))
        history: list[tuple[float, float, float]] = []
        converged = False
        # Each block task reuses a (2, block, N) scratch: fresh pages for
        # every block cost more than the arithmetic at N = 400.
        with _block_runner(_block_threads(n), (2, min(n, PROJECTION_BLOCK), n)) as run:
            for _ in range(cfg.max_iters):
                w = _c_step_factor(kernel, p + r + m)
                # alpha - 1: 0 for the first BALANCE_FROM iterations, which
                # then keep the unrelaxed bits.
                excess = RELAXATION - 1.0 if len(history) >= BALANCE_FROM else 0.0
                # V's coefficients in C_hat - U: W, or (alpha - 1) M + alpha W.
                w_hat = excess * m + (1.0 + excess) * w if excess else w
                p_next = np.empty_like(vt)

                def update(rows: slice, scratch: np.ndarray) -> list:
                    """Z-step and dual step on one row block; its squared norms and columns of P."""
                    v, spare = scratch[:, : rows.stop - rows.start]
                    np.matmul(w_hat[:, rows].T, vt, out=v)  # rows of (C_hat - U)^T, with Z^T and (alpha - 1) S^T
                    v += zt[rows]
                    if excess:
                        _add_scaled(v.reshape(-1), st[rows], excess)
                    v *= scale
                    # In place on v, with spare as ssrsc's scratch. Its
                    # finiteness scan is the loop's only one.
                    try:
                        z_next = project(v.T, cfg, rows.start, spare).T
                    except NumericError as exc:
                        raise DivergenceError("ADMM iterates became non-finite") from exc
                    dz = np.subtract(z_next, zt[rows], out=spare)
                    zt[rows] = z_next  # v is free from here
                    gap = np.subtract(dz, st[rows], out=v)
                    s_next = st[rows]
                    if excess:  # S_new = dZ - (alpha - 1) S, in place
                        s_next *= -excess
                        s_next += dz
                    else:
                        np.copyto(s_next, dz)
                    squares = _squares(dz, gap, s_next)
                    p_next[:, rows] = vt @ zt[rows].T
                    return squares

                def update_sparse(rows: slice, scratch: np.ndarray) -> list:
                    """The step of update on one row block of the sparse loop's Z^T and S^T.

                    From the second iteration on, the projection screens the
                    block's columns with their previous supports and returns
                    the positive entries. S^T, the squared norms and P's
                    columns then come from the three blocks' entries, written
                    at the union of their positions into v: the dense step's
                    bits (S_new's support lies in the union). A block with a
                    dense Z^T or S^T, or whose union is denser than its
                    entries, takes update's dense step, into the dense blocks
                    in place.
                    """
                    block = rows.start // PROJECTION_BLOCK
                    z_old, s_old = zt[block], st[block]
                    v, spare = scratch[:, : rows.stop - rows.start]
                    np.matmul(w_hat[:, rows].T, vt, out=v)
                    flat = v.reshape(-1)
                    _apply(np.add, flat, z_old)
                    if excess:
                        _add_scaled(flat, s_old, excess)
                    v *= scale
                    warm = () if isinstance(z_old, np.ndarray) or not z_old[0].size else (z_old[0],)
                    try:
                        z_new = project(v.T, cfg, rows.start, spare, *warm)
                    except NumericError as exc:
                        raise DivergenceError("ADMM iterates became non-finite") from exc
                    if warm:
                        z_new = (z_new[0].astype(np.int32), z_new[1])
                    else:  # v holds the projection
                        z_new = _nonzero_entries(v)
                    union = None
                    if z_new is not None and not any(isinstance(b, np.ndarray) for b in (z_old, s_old)):
                        union = _union(z_new[0], z_old[0], s_old[0])
                        if _denser_than_entries(union.size, flat.size):
                            union = None
                    if union is not None:
                        at = union.astype(np.intp)  # numpy indexes by intp; one conversion
                        flat[at] = 0.0
                        flat[z_new[0]] = z_new[1]
                        _apply(np.subtract, flat, z_old)
                        dz = flat[at]  # Z_new - Z_old at the union
                        s_at = _at(flat, at, s_old)
                        s_next = dz - excess * s_at if excess else dz
                        squares = _squares(dz, dz - s_at, s_next)
                        stored = s_next != 0
                        zt[block], st[block] = z_new, (union[stored], s_next[stored])
                    else:
                        if warm:  # v = Z_new
                            v.fill(0.0)
                            flat[z_new[0]] = z_new[1]
                        dz = spare
                        np.copyto(dz, v)
                        _apply(np.subtract, dz.reshape(-1), z_old)
                        zt[block] = _kept(v, z_old)  # v is free from here
                        s_next = dz
                        if excess:  # v = S_new = dZ - (alpha - 1) S
                            np.copyto(v, dz)
                            _add_scaled(flat, s_old, -excess)
                            s_next = v
                        if isinstance(s_old, np.ndarray):
                            gap = np.subtract(dz, s_old, out=s_old)
                        else:
                            gap = dz.copy()
                            _apply(np.subtract, gap.reshape(-1), s_old)
                        squares = _squares(dz, gap, s_next)
                        st[block] = _kept(s_next, gap)
                    p_next[:, rows] = _times(zt[block], v_rows, rows.stop - rows.start).T
                    return squares

                dense_sq = np.zeros(3)
                # Summed in block order, whatever ran them.
                for squares in run(update_sparse if sparse else update, blocks):
                    dense_sq += squares
                dz_sq, gap_sq, sum_sq = dense_sq
                # The unrelaxed C - Z_new = S - dZ + V(M + W); dr is V^T (dZ - S)
                # until it becomes R_new - R = dP - alpha R below.
                dp, dm = p_next - p, -(1.0 + excess) * (m + w)
                dr = dp - r
                # An overflowed iterate's norms give inf - inf = NaN, which
                # the check raises on (c_change in the next row).
                with np.errstate(invalid="ignore", over="ignore"):
                    row = (_split_norm(gap_sq, dr, dr - (m + w)), c_change, float(np.sqrt(dz_sq)))
                if not np.all(np.isfinite(row)):
                    raise DivergenceError("ADMM iterates became non-finite")
                history.append(row)
                converged = max(row) <= cfg.tol
                if converged:
                    break
                if excess:
                    dr -= excess * r
                rho_next, f = rho, 1.0
                if BALANCE_FROM <= len(history) < cfg.max_iters:
                    rho_next = _balanced_rho(rho, BALANCE_CAP * cfg.rho, row[0], rho * row[2])
                with np.errstate(invalid="ignore", over="ignore"):
                    if rho_next == rho:
                        # C_k+2 - C_k+1 = (I - V ridge V^T)(Y_k+1 - Y_k), Y = Z + U,
                        # whose dense part is dZ + S_new - S.
                        c_change = _split_norm(sum_sq, dp + dr, (1.0 - kernel.ridge[:, None]) * (dp + dr + dm))
                    else:
                        # The scaled dual U = Delta/rho becomes f U: S, R and M
                        # are rescaled in place. With Y the last C-step's
                        # Z + U (V^T Y = P + R + M until their update below),
                        # C_k+2 - C_k+1 = (I - V ridge' V^T)(Z_new + f U_new - Y)
                        # + V (ridge' - ridge)(V^T - V^T Y), whose dense part
                        # D = dZ + f S_new - S has its squared norm from the
                        # blocks' three and ||S_new||^2.
                        f = rho / rho_next
                        ridge = kernel.ridge
                        rho, kernel = rho_next, kernel.with_shift(0.5 * rho_next)
                        scale = rho / (2.0 * cfg.lam + rho)
                        s_sq = _squared_norm(st)
                        vtd = dp - r + f * (r + dr)
                        inside = (1.0 - kernel.ridge[:, None]) * (vtd + f * (m + dm) - m)
                        inside += (kernel.ridge - ridge)[:, None] * (vt - (p + r + m))
                        c_change = _split_norm(f * f * s_sq + gap_sq + f * (sum_sq - s_sq - gap_sq), vtd, inside)
                        del vtd, inside  # held through the next iteration, they would raise its peak
                        if sparse:
                            _rescale(st, f)
                        else:
                            st *= f
                p, r, m = p_next, r + dr, m + dm
                if f != 1.0:
                    r *= f
                    m *= f
        if sparse:
            st.clear()  # room for assembling Z
            z = _assembled(zt, n, n >= spectral.SPARSE_EIGEN_MIN_N)
        else:
            z = zt.T
    return SolveResult(coefficients=z, residual_history=history, converged=converged)


def solve_ssrsc(x, cfg: SolverConfig) -> SolveResult:
    """ADMM with scale-s simplex columns; with cfg.zero_diagonal also a zero diagonal."""
    return _solve_admm(x, cfg, "ssrsc")


def solve_nlsr(x, cfg: SolverConfig) -> SolveResult:
    """ADMM with non-negative coefficients (a clip as the Z-step, which carries lam as for ssrsc and slsr)."""
    return _solve_admm(x, cfg, "nlsr")


def solve_slsr(x, cfg: SolverConfig) -> SolveResult:
    """ADMM with columns summing to s (a uniform shift as the Z-step; entries may go negative)."""
    return _solve_admm(x, cfg, "slsr")


def solve(x, cfg: SolverConfig) -> SolveResult:
    """Run the solver selected by cfg.model on a D x N data matrix."""
    if cfg.model == "lsr":
        return SolveResult(coefficients=solve_lsr(x, cfg.lam), converged=True)
    return _solve_admm(x, cfg, cfg.model)
