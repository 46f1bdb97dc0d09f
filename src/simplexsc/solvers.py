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
(one table, which also holds its certified jump, below): nlsr clips onto Z >= 0, slsr shifts onto the hyperplane and
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
The loop keeps Z^T and S^T (one row per point) as lists of row blocks of
``PROJECTION_BLOCK`` rows, and the r x N M, P = V^T Z and R = V^T S. Each
row block is one task: a GEMM for its rows of C_hat - U, to which it adds
Z^T and (alpha - 1) S^T, the projection in place in the task's scratch, its
new rows of Z^T and S^T, three partial squared norms (``_squares``) and its
columns of P; the residuals come from the blocks' norms, added in block
order, and O(rN) factor terms. A block is a dense array, updated in place,
except in a ssrsc solve of more than one row block (``_sparse_route``):
ssrsc's Z is sparse and non-negative and ADMM's supports barely move, so
there a block is held as its entries (sorted flat positions and values)
unless it is denser than they are (a degenerate input, such as every point
the same, or an early iterate at lam >= 1). A block of entries passes its
dense form only through the scratch: from the second iteration on, the
projection screens each column with its previous support (see
``projections``) and returns the positive entries, with no partition and
no scan of the block, and S^T and the squared norms come from the entries
at the union of the three blocks' positions (relaxed, S^T keeps every
entry Z has had, as S_new = dZ - (alpha - 1) S, so the union is mostly
S^T's own entries), and P's columns from scipy's CSR product. Such a solve
needs O(nnz + threads * 256 * N) memory, and its Z and residuals agree with
those of dense blocks to rounding, as the order of the sums differs. Z
comes back as a ``scipy.sparse`` CSC array, the transpose of the stacked
Z^T, for ssrsc from ``SPARSE_EIGEN_MIN_N`` points on (the spectral stage's
threshold), and as a dense array otherwise.

ADMM is early-stopped by design (the paper's 5 iterations), but a solve to
tolerance ends at an optimum that an active set can find exactly (OSQP's
solution polishing, Stellato et al. 2020). So a solve of more than 5
iterations has ssrsc and slsr try one certified jump (their ``jump`` in
the model table) before its first iteration, and if it is not certified,
again after iterations 5, 10, 20, 40, ... while the solve has not
converged and may go on (``_attempts_after``). ssrsc's attempt
(``_simplex_optimum``) is a batched primal active set per 256-column block
on G = B^T B with B = diag(s) V^T (no second SVD, no N x N Gram matrix),
from Z's supports, or before the first iteration from each column's
START_SUPPORT largest correlations b_i^T b_j (i != j with
``zero_diagonal``) at s/m each (``_correlated_start``, after You, Robinson
and Vidal 2016); a block whose widest support would need systems wider
than sqrt(2N) (k x k, or r x r when r < k) skips it, which keeps them
within about one block scratch. It is certified when every column's
entries are positive and no outsider's half-gradient lies below the
column's multiplier, up to a rounding slack (the Frank-Wolfe gap, Jaggi
2013, is then at rounding level). slsr's optimum has a closed form, L + a
nu^T from the ridge at shift lam (``_hyperplane_jump``), and is always
certified. nlsr has no jump: its Z is 55-59% nonzero. A certified jump
writes Z*'s rows over Z^T's row blocks, in place, and the solve returns Z*
at once as converged: the history holds the rows of the iterations before
the jump (none when it landed before the first), and its last row may
exceed tol. To tol 0.01, ssrsc at N=400 and the zero-diagonal fixture
(N=150), which plain ADMM takes 106 and 67 iterations, and slsr (15) now
land before iteration 1, with Frank-Wolfe gaps at rounding level. A solve
of at most 5 iterations never tries a jump and keeps every bit.

Solves run on one BLAS thread (see ``blas``), so their bits do not depend on
the BLAS thread count. A solve of 4 blocks or more spreads its block tasks
over helper threads (``_block_threads``); a task computes the same bits on
any thread, so Z and the residual history do not depend on the number of
threads either.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse
from scipy.linalg.blas import daxpy

from . import spectral
from .blas import single_blas_thread
from .core import ConfigError, DivergenceError, NumericError, SolverConfig, as_data_matrix
from .projections import EPS, project_columns_scaled_affine, project_columns_scaled_simplex, project_nonneg

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
# A certified jump to the exact optimum (see the module docstring) is tried
# before the first iteration and after iterations BALANCE_FROM,
# 2 * BALANCE_FROM, 4 * BALANCE_FROM, ... until one lands, ssrsc's with at
# most POLISH_ROUNDS gradient passes. Before the first iteration ssrsc
# starts each column from its START_SUPPORT largest correlations.
POLISH_ROUNDS = 4
START_SUPPORT = 4


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
    fell to <= tol simultaneously within the iteration budget, or when a
    certified jump after iteration ``iterations_used`` returned the exact
    optimum (see ``solvers``), whatever that iteration's row reads; 0
    iterations with ``converged`` mean a certified optimum before any
    iteration (the history is empty).
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


# Per constrained model, its Z-step and its certified jump. The Z-step
# projects Z's columns start, start + 1, ... of v in place, ssrsc with the
# block-sized scratch and, after a block of entries, its previous supports,
# with which it returns the positive entries instead. The
# jump (see _solve_admm) takes the kernel, cfg, the loop's row blocks of Z^T,
# its block runner and the blocks, and returns a function that writes a row
# block of the optimum's Z*^T into an array and returns it, or None if it
# could not certify one; nlsr has none. Both name this module's globals,
# looked up at call time, so that a tracer can swap them.
class _Model(NamedTuple):
    project: Callable
    jump: Callable | None


_ADMM_MODELS = {
    "nlsr": _Model(lambda v, cfg, start, scratch: project_nonneg(v, out=v), None),
    "slsr": _Model(
        lambda v, cfg, start, scratch: project_columns_scaled_affine(v, cfg.s, out=v),
        lambda *args: _hyperplane_jump(*args),
    ),
    "ssrsc": _Model(
        lambda v, cfg, start, scratch, support=None: (
            _project_off_diagonal(v, cfg.s, start, out=v, scratch=scratch, support=support)
            if cfg.zero_diagonal
            else project_columns_scaled_simplex(v, cfg.s, out=v, scratch=scratch, support=support)
        ),
        lambda *args: _simplex_jump(*args),
    ),
}


def _block_threads(n: int) -> int:
    """Threads for the row blocks of an N-point solve; 1 runs them on the caller's.

    One per core that this process may run on, but few enough that their
    scratch (two blocks each) holds no more than one N x N array: on two
    threads a solve of dense blocks (nlsr at N=1200, or ssrsc on N=1024
    identical points) peaked at 3.1-3.3 N^2 doubles. So a solve of fewer
    than 4 blocks (N < 1024) stays serial.
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
    """Whether a solve may hold row blocks of Z^T and S^T as entries: ssrsc of more than one row block."""
    return model == "ssrsc" and n > PROJECTION_BLOCK


# A row block of Z^T or S^T is a dense array, or, on the sparse route, its
# entries: the sorted flat positions of its nonzeros in the block's C-ordered
# form and their values (12 bytes an entry: the positions are 32-bit, as a
# block of PROJECTION_BLOCK rows has fewer than 2**31 entries below 8 million
# points), unless more than 2/3 of its entries are nonzero, when the dense
# array takes less memory.
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


def _filled(v: np.ndarray, block) -> np.ndarray:
    """v holding a row block: a copy of a dense block, or its entries and zeros elsewhere."""
    if isinstance(block, np.ndarray):
        np.copyto(v, block)
    else:
        v.fill(0.0)
        v.reshape(-1)[block[0]] = block[1]
    return v


def _nonzero_entries(v: np.ndarray):
    """The entries of a C-ordered block, or None if it is denser than they are."""
    flat = v.reshape(-1)
    nonzero = flat != 0  # with it, np.flatnonzero runs 4x faster than on the floats
    if _denser_than_entries(np.count_nonzero(nonzero), flat.size):
        return None
    positions = np.flatnonzero(nonzero).astype(np.int32)
    return positions, flat[positions]


def _kept(v: np.ndarray, owned, entries: bool = True):
    """The row block of v: its entries if ``entries`` and they are smaller, else dense, in ``owned`` if that is."""
    found = _nonzero_entries(v) if entries else None
    if found is not None:
        return found
    if isinstance(owned, np.ndarray):
        if owned is not v:
            np.copyto(owned, v)
        return owned
    return v.copy()


def _rescale(blocks: list, factor: float) -> None:
    """Multiply row blocks by factor in place: their values, or the dense blocks."""
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


def _squared_norm(blocks: list) -> float:
    """||S||_F^2 from the row blocks of S^T, summed block by block."""
    return float(sum(np.vdot(b, b) if isinstance(b, np.ndarray) else np.vdot(b[1], b[1]) for b in blocks))


def _union(*positions: np.ndarray) -> np.ndarray:
    """The sorted union of sorted position arrays (a stable sort merges the runs)."""
    merged = np.concatenate(positions)
    merged.sort(kind="stable")
    keep = np.empty(merged.size, dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def _columns(block, vt: np.ndarray, v_rows: np.ndarray, count: int) -> np.ndarray:
    """A row block's columns of P = V^T Z: a GEMM on a dense block, or a CSR product on its entries."""
    if isinstance(block, np.ndarray):
        return vt @ block.T
    positions, values = block
    n = v_rows.shape[0]
    indptr = np.searchsorted(positions, np.arange(0, count * n + 1, n)).astype(np.int32)
    return (scipy.sparse.csr_array((values, np.remainder(positions, n), indptr), shape=(count, n)) @ v_rows).T


def _assembled(blocks: list, n: int, sparse: bool):
    """Z from the row blocks of Z^T, which it drops as it goes.

    A ``scipy.sparse`` CSC array (the transpose of CSR Z^T) if ``sparse``,
    else the transpose of a lone block or of the blocks written into one
    N x N array.
    """
    if not sparse:
        if len(blocks) == 1:
            return blocks.pop().T
        zt = np.empty((n, n))
        for i, block in enumerate(blocks):
            _filled(zt[i * PROJECTION_BLOCK : (i + 1) * PROJECTION_BLOCK], block)
            blocks[i] = block = None
        return zt.T
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
    return scipy.sparse.csr_array((data, indices, indptr), shape=(n, n)).T


def _attempts_after(k: int) -> bool:
    """Whether a jump is tried after iteration k: k = 0 (before the first) or k = BALANCE_FROM * 2^j."""
    q, rest = divmod(k, BALANCE_FROM)
    return k == 0 or (rest == 0 and q & (q - 1) == 0)


def _ridge_solves(gathered: np.ndarray, target: np.ndarray, mask: np.ndarray, lam: float):
    """x = H^-1 B_A^T b and y = H^-1 1 per column, H = B_A^T B_A + lam*I.

    ``gathered`` holds each column's rows of B^T at its support (zero rows
    after it), ``target`` its b_j and ``mask`` its 1. A support of k entries
    takes the k x k system; one wider than r = B's rows takes the r x r system
    K = lam*I + B_A B_A^T: x = B_A^T K^-1 b and y = (1 - B_A^T K^-1 B_A 1)/lam.
    The zero rows give x = y = 0 after the support.
    """
    k, r = gathered.shape[1:]
    if k <= r:
        h = gathered @ gathered.transpose(0, 2, 1)
        h[:, range(k), range(k)] += lam
        rhs = np.stack([(gathered @ target[:, :, None])[:, :, 0], mask], axis=-1)
        solved = np.linalg.solve(h, rhs)
        return solved[:, :, 0], solved[:, :, 1]
    system = gathered.transpose(0, 2, 1) @ gathered
    system[:, range(r), range(r)] += lam
    rhs = np.stack([target, (mask[:, None, :] @ gathered)[:, 0]], axis=-1)
    back = gathered @ np.linalg.solve(system, rhs)
    return back[:, :, 0], (mask - back[:, :, 1]) / lam


def _restricted_optima(
    bt: np.ndarray, owner: np.ndarray, index: np.ndarray, columns: np.ndarray, cfg: SolverConfig, room: np.ndarray
):
    """Some columns' optima with their supports fixed; None if a system would be wider than sqrt(2N).

    Column j = columns[c] minimizes ||b_j - B z||^2 + lam ||z||^2 over z
    with sum s on its support, the entries ``index`` whose ``owner`` is c
    (sorted by owner), where B^T is bt without its last row, a row of zeros
    that pads the gathered supports: z = x + mu y (see _ridge_solves),
    with mu = (s - 1^T x)/(1^T y) the multiplier, so the half-gradient
    B^T (B z - b_j) + lam z is mu on the support. Returns z in entry order,
    mu and the residuals B z - b_j (one row per column); None also for a
    column with no entry, a singular system, a non-finite result or a
    column whose k x r gather does not fit ``room``. Columns are gathered in
    chunks into ``room``, a flat float64 buffer (an idle scratch block).
    """
    n, r = bt.shape[0] - 1, bt.shape[1]
    count = columns.size
    sizes = np.bincount(owner, minlength=count)
    k = int(sizes.max())
    if min(k, r) ** 2 > 2 * n or sizes.min() == 0 or k * r > room.size:
        return None
    first = np.concatenate([[0], np.cumsum(sizes)])
    slot = np.arange(owner.size) - first[owner]
    rows = np.full((count, k), n)
    rows[owner, slot] = index
    values, mu, residual = np.empty(owner.size), np.empty(count), np.empty((count, r))
    step = room.size // (k * r)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        part = slice(first[lo], first[hi])
        at = (owner[part] - lo, slot[part])
        gathered = room[: (hi - lo) * k * r].reshape(hi - lo, k, r)
        np.take(bt, rows[lo:hi], axis=0, out=gathered, mode="clip")  # "clip" writes out unbuffered
        mask = (rows[lo:hi] < n).astype(np.float64)
        target = bt[columns[lo:hi]]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            try:
                x, y = _ridge_solves(gathered, target, mask, cfg.lam)
            except np.linalg.LinAlgError:  # overflowed systems
                return None
            mu[lo:hi] = (cfg.s - x.sum(axis=1)) / y.sum(axis=1)
            x += mu[lo:hi, None] * y
        values[part] = x[at]
        residual[lo:hi] = (x[:, None, :] @ gathered)[:, 0] - target
    if not np.all(np.isfinite(values)):
        return None
    return values, mu, residual


def _simplex_optimum(b: np.ndarray, bt: np.ndarray, cfg: SolverConfig, entries, start: int, scratch: np.ndarray):
    """The certified optimum of columns start, start + 1, ... of ssrsc's Z, as entries, or None.

    A primal active set (Lawson and Hanson's, per column, batched) from
    ``entries``, a feasible iterate's sorted flat positions in the block's
    Z^T rows and its values. On the columns not yet certified it solves on
    the supports; while a column's solution has a nonpositive entry, it
    moves from the column's feasible point towards that solution until an
    entry reaches 0, drops it and solves again. Then one GEMM pass gives
    their half-gradients B^T (B z_j - b_j), which no outsider i (i != j with
    ``zero_diagonal``) may take below its column's multiplier mu_j; the
    outsiders that do join the supports, at 0, for the next round.
    Certified means positive entries and no such outsider, up to a rounding
    slack bounded as projections._slack bounds its own: 2 (r + k + 4) eps
    times the sums' magnitudes, beta (||B z_j - b_j|| + beta s + ||b_j||) +
    lam s + |mu_j| with beta the largest column norm of B. ``scratch`` is
    a task's (2, rows, N) scratch: the first takes the gradients and the
    whole second is the room of the gathered supports, also for a short
    last block. Gives up after POLISH_ROUNDS passes, or when a system would
    be wider than sqrt(2N), does not fit the room or cannot be solved.
    """
    r, n = b.shape
    count = min(scratch.shape[1], n - start)
    norms = np.sqrt(np.einsum("ij,ij->i", bt, bt))
    beta = norms.max()
    support, values = np.asarray(entries[0], dtype=np.intp), entries[1].copy()
    pending = np.arange(count)  # the columns not yet certified
    rank = np.empty(count, dtype=np.intp)

    def ranked() -> tuple:
        """The entries of the ranked columns: their places in support, the columns' ranks and the rows."""
        owner = support // n
        chosen = np.flatnonzero(rank[owner] >= 0)
        return chosen, rank[owner[chosen]], support[chosen] - owner[chosen] * n

    for done in range(POLISH_ROUNDS):
        mu, residual = np.empty(pending.size), np.empty((pending.size, r))
        unsettled = np.arange(pending.size)  # places in pending of the columns still solving
        while unsettled.size:
            rank.fill(-1)
            rank[pending[unsettled]] = np.arange(unsettled.size)
            chosen, column, index = ranked()
            solved = _restricted_optima(bt, column, index, start + pending[unsettled], cfg, scratch[1].reshape(-1))
            if solved is None:
                return None
            found, mu[unsettled], residual[unsettled] = solved
            blocked = found <= 0
            moved = found
            if done and blocked.any():
                # From the feasible values towards found, to the step t in
                # [0, 1] at which a column's first entry reaches 0.
                feasible = values[chosen]
                ratios = np.full(found.size, np.inf)
                ratios[blocked] = feasible[blocked] / (feasible[blocked] - found[blocked])
                step = np.minimum.reduceat(ratios, np.flatnonzero(np.diff(column, prepend=-1)))
                step = np.minimum(step, 1.0)[column]
                moved = np.maximum(feasible + step * (found - feasible), 0.0)
                blocked = ratios <= step
            again = np.bincount(column[blocked], minlength=unsettled.size) > 0
            values[chosen] = np.where(again[column], moved, found)
            keep = np.ones(support.size, dtype=bool)
            keep[chosen[blocked]] = False
            support, values = support[keep], values[keep]
            unsettled = unsettled[again]
        rank.fill(-1)
        rank[pending] = np.arange(pending.size)
        chosen, column, index = ranked()
        gradient = np.matmul(residual, b, out=scratch[0, : pending.size])
        gradient[column, index] = np.inf
        if cfg.zero_diagonal:
            gradient[np.arange(pending.size), start + pending] = np.inf
        sizes = np.bincount(column, minlength=pending.size)
        magnitude = beta * (np.linalg.norm(residual, axis=1) + beta * cfg.s + norms[start + pending])
        slack = 2.0 * (r + sizes + 4) * EPS * (magnitude + cfg.lam * cfg.s + np.abs(mu))
        row, below = np.nonzero(gradient < (mu - slack)[:, None])
        if not row.size:
            return support.astype(np.int32), values
        merged = _union(support, pending[row] * n + below)
        values, values[np.searchsorted(merged, support)] = np.zeros(merged.size), values
        support, pending = merged, np.unique(pending[row])
    return None


def _correlated_start(b: np.ndarray, cfg: SolverConfig, rows: slice, g: np.ndarray):
    """A feasible start for ssrsc's columns rows, as entries: s/m at each column's m largest correlations.

    The correlations of column j are its column of G = B^T B (b_i^T b_j,
    without i = j under ``zero_diagonal``), taken by one GEMM into g, a
    (rows, N) scratch. m is START_SUPPORT, capped at the column's
    candidates (N, or N - 1 with ``zero_diagonal``).
    """
    n = b.shape[1]
    count = rows.stop - rows.start
    np.matmul(b[:, rows].T, b, out=g)
    if cfg.zero_diagonal:
        g[np.arange(count), rows.start + np.arange(count)] = -np.inf
    m = max(1, min(START_SUPPORT, n - cfg.zero_diagonal))
    top = np.argpartition(g, n - m, axis=1)[:, n - m :]
    top.sort(axis=1)
    positions = (np.arange(count)[:, None] * n + top).reshape(-1)
    return positions, np.full(positions.size, cfg.s / m)


def _simplex_jump(kernel: PrecomputedKernel, cfg: SolverConfig, zt_blocks: list, run, blocks: list):
    """ssrsc's certified optimum: writes its rows of Z*^T into a block, or None if a block is not certified.

    A block with entries starts the active set from them; one without
    (before the first iteration) from its columns' largest correlations.
    """
    b = np.sqrt(kernel.squared)[:, None] * kernel.vt
    bt = np.zeros((b.shape[1] + 1, b.shape[0]))  # B^T and a row of zeros for _restricted_optima
    bt[:-1] = b.T

    def attempt(rows: slice, scratch: np.ndarray):
        block = zt_blocks[rows.start // PROJECTION_BLOCK]
        if isinstance(block, np.ndarray):
            support = np.flatnonzero(block)
            block = (support, block.reshape(-1)[support])
        if not block[0].size:
            block = _correlated_start(b, cfg, rows, scratch[0, : rows.stop - rows.start])
        return _simplex_optimum(b, bt, cfg, block, rows.start, scratch)

    optima = run(attempt, blocks)
    if any(entries is None for entries in optima):
        return None

    def write(v: np.ndarray, rows: slice) -> np.ndarray:
        return _filled(v, optima[rows.start // PROJECTION_BLOCK])

    return write


def _hyperplane_jump(kernel: PrecomputedKernel, cfg: SolverConfig, zt_blocks: list, run, blocks: list):
    """slsr's closed-form optimum Z* = L + a nu^T (always certified): writes its rows of Z*^T into a block.

    With A = X^T X + lam*I and ridge the factors at shift lam: L =
    V diag(ridge) V^T (lsr's solution), a = A^-1 1 =
    (1 - V V^T 1)/lam + V diag(1/(s^2 + lam)) V^T 1 and
    nu = (s - 1^T L)/(1^T a).
    """
    vt, lam = kernel.vt, cfg.lam
    ridge = kernel.with_shift(lam).ridge
    ones = vt.sum(axis=1)
    a = (1.0 - vt.T @ ones) / lam + vt.T @ (ones / (kernel.squared + lam))
    nu = (cfg.s - vt.T @ (ridge * ones)) / a.sum()
    left = np.column_stack([vt.T * ridge, nu])  # Z*^T = L + nu a^T, L symmetric
    right = np.vstack([vt, a])

    def write(v: np.ndarray, rows: slice) -> np.ndarray:
        return np.matmul(left[rows], right, out=v)

    return write


def _solve_admm(x, cfg: SolverConfig, model: str) -> SolveResult:
    """ADMM for a constrained model in scaled form on Z^T, S^T and r x N factors.

    All iterates start at zero (see the module docstring for the algebra and
    the certified jump). Stops when the three residuals are simultaneously
    <= tol, when a certified jump lands (before the first iteration or after
    a later one), or after max_iters iterations. Returns Z, the iterate (or
    the optimum) that satisfies the model's constraints exactly, as the
    transpose of the C-ordered Z^T (CSR for a sparse Z). Raises
    DivergenceError when an iterate turns non-finite.
    """
    if cfg.model != model:
        raise ConfigError(f"solve_{model} requires model {model!r}, got {cfg.model!r}")
    x = as_data_matrix(x)
    n = x.shape[1]
    if cfg.zero_diagonal and n < 2:
        raise ConfigError("zero_diagonal needs at least 2 points to keep columns feasible")
    project, jump = _ADMM_MODELS[model]
    rho = cfg.rho
    scale = rho / (2.0 * cfg.lam + rho)
    blocks = [slice(start, min(start + PROJECTION_BLOCK, n)) for start in range(0, n, PROJECTION_BLOCK)]
    with single_blas_thread():
        kernel = precompute_kernel(x, 0.5 * rho)
        vt = kernel.vt
        v_rows = np.ascontiguousarray(vt.T)
        # Row blocks of Z^T and S^T: on the sparse route most of them
        # entries, else dense arrays.
        sparse = _sparse_route(model, n)
        zt = [NO_ENTRIES if sparse else np.zeros((rows.stop - rows.start, n)) for rows in blocks]
        st = [b if sparse else np.zeros_like(b) for b in zt]
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
                if jump and cfg.max_iters > BALANCE_FROM and _attempts_after(len(history)):
                    optimum = jump(kernel, cfg, zt, run, blocks)
                    if optimum is not None:  # certified: Z*'s rows over Z's, in place, and Z* is the result
                        zt[:] = run(
                            lambda rows, scratch: _kept(
                                optimum(scratch[0, : rows.stop - rows.start], rows),
                                zt[rows.start // PROJECTION_BLOCK],
                                sparse,
                            ),
                            blocks,
                        )
                        converged = True
                        break
                w = _c_step_factor(kernel, p + r + m)
                # alpha - 1: 0 for the first BALANCE_FROM iterations, which
                # then keep the unrelaxed bits.
                excess = RELAXATION - 1.0 if len(history) >= BALANCE_FROM else 0.0
                # V's coefficients in C_hat - U: W, or (alpha - 1) M + alpha W.
                w_hat = excess * m + (1.0 + excess) * w if excess else w
                p_next = np.empty_like(vt)

                def step(rows: slice, scratch: np.ndarray) -> list:
                    """Z-step and dual step on one row block of Z^T and S^T; its squared norms and columns of P.

                    The projection works in place on v, the block's rows of
                    C_hat - U, or, from a block of entries, screens each
                    column with its previous support and returns the
                    positive entries. When Z_new, Z and S are all entries,
                    S_new, the squared norms and P's columns come from them,
                    written at the union of their positions into v (S_new's
                    support lies in the union). Otherwise (a dense block, or
                    a union denser than its entries) the step runs on the
                    dense forms, S_new in place. Both give the same bits.
                    """
                    block = rows.start // PROJECTION_BLOCK
                    z_old, s_old = zt[block], st[block]
                    v, spare = scratch[:, : rows.stop - rows.start]
                    np.matmul(w_hat[:, rows].T, vt, out=v)  # rows of (C_hat - U)^T, with Z^T and (alpha - 1) S^T
                    flat = v.reshape(-1)
                    _apply(np.add, flat, z_old)
                    if excess:
                        _add_scaled(flat, s_old, excess)
                    v *= scale
                    warm = () if isinstance(z_old, np.ndarray) or not z_old[0].size else (z_old[0],)
                    # With spare as ssrsc's scratch. Its finiteness scan is
                    # the loop's only one.
                    try:
                        z_new = project(v.T, cfg, rows.start, spare, *warm)
                    except NumericError as exc:
                        raise DivergenceError("ADMM iterates became non-finite") from exc
                    if warm:
                        z_new = (z_new[0].astype(np.int32), z_new[1])
                    else:  # v holds the projection
                        z_new = _nonzero_entries(v) if sparse else None
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
                        gap = dz - s_at
                        squares = _squares(dz, gap, s_next)
                        stored = s_next != 0
                        zt[block], st[block] = z_new, (union[stored], s_next[stored])
                    else:
                        if warm:  # v = Z_new
                            _filled(v, z_new)
                        dz = spare
                        np.copyto(dz, v)
                        _apply(np.subtract, dz.reshape(-1), z_old)
                        zt[block] = _kept(v, z_old, sparse)  # v is free from here
                        s_next = s_old if isinstance(s_old, np.ndarray) else _filled(np.empty_like(v), s_old)
                        gap = np.subtract(dz, s_next, out=v)
                        if excess:  # S_new = dZ - (alpha - 1) S, in place
                            s_next *= -excess
                            s_next += dz
                        else:
                            np.copyto(s_next, dz)
                        squares = _squares(dz, gap, s_next)
                        st[block] = _kept(s_next, s_next, sparse)
                    p_next[:, rows] = _columns(zt[block], vt, v_rows, rows.stop - rows.start)
                    return squares

                dense_sq = np.zeros(3)
                # Summed in block order, whatever ran them.
                for squares in run(step, blocks):
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
                        _rescale(st, f)
                p, r, m = p_next, r + dr, m + dm
                if f != 1.0:
                    r *= f
                    m *= f
        st.clear()  # room for assembling Z
        z = _assembled(zt, n, sparse and n >= spectral.SPARSE_EIGEN_MIN_N)
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
