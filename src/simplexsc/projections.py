"""Exact Euclidean projections used as ADMM feasibility steps.

Three constraint sets appear across the solvers: the scaled simplex
{z : z >= 0, sum(z) = s}, the scaled affine hyperplane {z : sum(z) = s},
and the non-negative orthant. Each projection is closed-form; the simplex
one costs O(N log N) per vector via a descending sort.

The matrix forms project every column in one pass with no Python loop over
columns, so a call on an N x width matrix takes O(N * width) temporaries
unless the caller passes its own ``out`` (and, for the simplex, ``scratch``)
buffers, as the ADMM loop does for each row block of Z^T; their output, in
the input's memory layout, equals the vector projection of each column bit
for bit. The simplex one sorts only a top-m candidate set per column (Duchi et
al. 2008; Condat 2016): the shift depends on the entries that stay positive
alone, and an ADMM iterate has few of them. A column whose positive entries
reach m is retried with a larger m, up to a full sort.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError, NumericError


def _finite_vector(u, name: str) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size < 1:
        raise ConfigError(f"{name} must be a non-empty 1-D vector, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise NumericError(f"{name} contains non-finite values")
    return u


def project_scaled_simplex(u, s: float) -> np.ndarray:
    """Project u onto the scale-s simplex {z : z >= 0, sum(z) = s}.

    Sort-based exact projection: with w the descending sort of u, the number
    of positive output entries is the largest j with
    w_j + (s - sum_{i<=j} w_i)/j > 0, and every output entry is
    max(u_i + beta, 0) for the matching uniform shift beta.
    """
    u = _finite_vector(u, "u")
    if not np.isfinite(s) or s <= 0:
        raise ConfigError(f"simplex scale s must be positive, got {s}")
    w = np.sort(u)[::-1]
    cumsum = np.cumsum(w)
    ranks = np.arange(1, u.size + 1)
    positive = w + (s - cumsum) / ranks > 0
    positive[0] = True  # w_1 + (s - w_1) > 0 whenever it is not rounded away
    alpha = int(np.nonzero(positive)[0][-1]) + 1
    beta = (s - cumsum[alpha - 1]) / alpha
    return np.maximum(u + beta, 0.0)


def project_scaled_affine(v, s: float) -> np.ndarray:
    """Project v onto the hyperplane {z : sum(z) = s} by a uniform shift."""
    v = _finite_vector(v, "v")
    if not np.isfinite(s):
        raise NumericError(f"hyperplane target s must be finite, got {s}")
    return v + (s - v.sum()) / v.size


def project_nonneg(m, *, out=None) -> np.ndarray:
    """Clip a matrix (or vector) to the non-negative orthant entrywise, in m's memory layout.

    With ``out`` (m itself for an in-place clip) the result is written there.
    """
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise NumericError("input contains non-finite values")
    return np.maximum(m, 0.0, out=out)


# Candidates per column on the first simplex pass, and the factor by which the
# candidate set grows for the columns that need more.
TOP_M = 32
TOP_M_GROWTH = 8
# Entries of the rows that one simplex pass sorts together: this bounds each
# of its temporaries (1 MB) and splits no 256-row block with N <= 512.
PASS_ENTRIES = 2**17


def _column_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1:
        raise ConfigError(f"m must be a 2-D matrix with non-empty columns, got shape {m.shape}")
    return m


def _finite_matrix(m) -> np.ndarray:
    m = _column_matrix(m)
    if not np.all(np.isfinite(m)):
        raise NumericError("m contains non-finite values")
    return m


def _simplex_shifts(rows: np.ndarray, s: float, top_m: int = TOP_M) -> np.ndarray:
    """The uniform shift beta of project_scaled_simplex for every row, bit for bit.

    Reorders the entries of each row in place. The top m entries of a row,
    sorted, are the first m entries of its full descending sort, so their
    cumulative sums and positivity tests are the same numbers. A row is
    settled at m once its m-th test value lies below -(1 + n/m) * slack: the
    exact j * (w_j + (s - sum_{i<=j} w_i) / j) never increases with j, and
    slack bounds the rounding error of a test value (n + 4 roundings of sums
    no larger than |s| + n * max|w|, doubled), so no test past m can come
    out positive and the full sort would find the same last positive entry.
    Raises NumericError for a non-finite entry, which the max/min pass finds.
    """
    count, n = rows.shape
    top, bottom = rows.max(initial=0.0), rows.min(initial=0.0)  # 0 for no rows
    if not (np.isfinite(top) and np.isfinite(bottom)):  # NaN reaches both, an inf one
        raise NumericError("m contains non-finite values")
    largest = max(top, -bottom)
    slack = 2.0 * (n + 4) * np.finfo(np.float64).eps * (abs(s) + n * largest)
    beta = np.empty(count)
    pending = np.arange(count)
    m = min(top_m, n)
    step = max(1, PASS_ENTRIES // n)  # rows per pass
    while pending.size:
        unsettled = []
        for lo in range(0, pending.size, step):
            part = pending[lo : lo + step]
            # Every row pending: a view, reordered in place; else a copy.
            candidates = rows[lo : lo + step] if pending.size == count else rows[part]
            settled, shifts = _top_shifts(candidates, s, m, slack)
            beta[part[settled]] = shifts
            unsettled.append(part[~settled])
        pending = np.concatenate(unsettled)
        m = min(TOP_M_GROWTH * m, n)
    return beta


def _top_shifts(candidates: np.ndarray, s: float, m: int, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """Which rows their top m entries settle (see _simplex_shifts), and those rows' shifts.

    Reorders the entries of each row in place.
    """
    n = candidates.shape[1]
    if m < n:
        candidates.partition(n - m, axis=1)
        candidates = candidates[:, n - m:]
    candidates.sort(axis=1)  # in place: only the equal entries +-0 can swap places
    w = candidates[:, ::-1]
    rest = np.cumsum(w, axis=1)
    np.subtract(s, rest, out=rest)  # s - sum_{i<=j} w_i
    tests = np.divide(rest, np.arange(1, m + 1))
    tests += w  # the bits of w + rest / j: IEEE addition commutes
    positive = tests > 0
    positive[:, 0] = True  # w_1 + (s - w_1) > 0 whenever it is not rounded away
    alpha = m - np.argmax(positive[:, ::-1], axis=1)
    if m == n:
        settled = np.ones(len(candidates), dtype=bool)
    else:
        settled = tests[:, -1] < -(1.0 + n / m) * slack
    return settled, rest[settled, alpha[settled] - 1] / alpha[settled]


def project_columns_scaled_simplex(m, s: float, *, out=None, scratch=None, top_m: int = TOP_M) -> np.ndarray:
    """Apply the scaled-simplex projection to every column of a matrix.

    Equals project_scaled_simplex on each column bit for bit; the output
    takes m's memory layout, so a Fortran-ordered m (the transpose of a
    block of rows) is read and written contiguously. ``out`` (m itself for
    an in-place projection) receives the result, and ``scratch``, an array
    of m.T's shape, the copy of the columns that the shift search reorders;
    either one left out is a fresh array.
    """
    m = _column_matrix(m)
    if not np.isfinite(s) or s <= 0:
        raise ConfigError(f"simplex scale s must be positive, got {s}")
    if scratch is None:
        scratch = m.T.copy()
    else:
        np.copyto(scratch, m.T)
    beta = _simplex_shifts(scratch, s, top_m)
    out = np.add(m, beta, out=np.empty_like(m) if out is None else out)
    return np.maximum(out, 0.0, out=out)


def project_columns_scaled_affine(m, s: float, *, out=None) -> np.ndarray:
    """Apply the scaled-affine projection to every column of a matrix.

    Equals project_scaled_affine on each column bit for bit (each column is
    summed as one contiguous row); the output takes m's memory layout, or
    goes to ``out`` (m itself for an in-place shift).
    """
    m = _finite_matrix(m)
    if not np.isfinite(s):
        raise NumericError(f"hyperplane target s must be finite, got {s}")
    shift = (s - np.ascontiguousarray(m.T).sum(axis=1)) / m.shape[0]
    return np.add(m, shift, out=np.empty_like(m) if out is None else out)
