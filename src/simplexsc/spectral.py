"""Affinity construction and normalized spectral clustering.

The affinity is either the plain symmetric average (C + C^T)/2, meant for
non-negative coefficient matrices, or the absolute symmetrization
(|C| + |C^T|)/2 used when coefficients may be signed. Segmentation embeds
points via the bottom eigenvectors of the symmetric normalized Laplacian,
row-normalizes the embedding, and runs k-means with a fixed number of seeded
restarts. The restarts draw their seeds in turn from one generator and then
iterate as one batch: each Lloyd step assigns every restart still moving from
one (restarts, N, k) distance array and sums the new centers by ``bincount``,
with the bits of one restart run alone.
Spectral clustering runs on one BLAS thread (see ``blas``), so its result
does not depend on the BLAS thread count, and it computes only the
n_clusters eigenvectors it embeds with.

Both stages take dense arrays or scipy.sparse matrices. From
``SPARSE_EIGEN_MIN_N`` points on, the ssrsc solve returns its Z as a CSC
array, which ``build_affinity`` turns into a CSR affinity in O(nnz), so that
pipeline never forms an N x N array.

Below ``SPARSE_EIGEN_MIN_N`` points, or from ``SPARSE_EIGEN_MAX_DENSITY``
nonzero on (lsr's affinity is 100% nonzero), the Laplacian is a dense array
solved by ``scipy.linalg.eigh``. Otherwise it is built in CSR (the simplex
coefficients make the affinity about 1-3% nonzero) and solved by Lanczos
(``scipy.sparse.linalg.eigsh``, ARPACK) from a fixed seeded normal start
vector. The dense eigensolve still takes three cases: more connected
components than n_clusters, n_clusters >= N - 1, and a Lanczos run that does
not converge. For a dense affinity the CSR Laplacian has the same bits as
the dense one, so these cases give the labels the dense path gives. With
more components than n_clusters the bottom eigenspace is degenerate, and the
labels are fixed by the eigensolver's choice of basis rather than by the
data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .blas import single_blas_thread
from .core import (
    AFFINITY_MODES,
    ConfigError,
    NumericError,
    ShapeError,
    as_count,
    as_square_matrix,
)

SYMMETRY_TOL = 1e-10

# From this many points on, spectral_cluster builds the Laplacian in CSR and
# takes its bottom eigenvectors by Lanczos. Dense subset eigh against
# Lanczos on ssrsc "sym" and lsr "abs" affinities, one BLAS thread: 1.1 ms
# against 307 ms at N=150 (a graph of many components), 13 against 23 ms at
# N=400, 28 against 31 ms at N=600, 127 against 30 ms at N=1000 and 365
# against 45 ms at N=1500.
SPARSE_EIGEN_MIN_N = 1000
# From this share of nonzero entries on, the affinity takes the dense route at
# every N, as its CSR form then takes more memory. Tracemalloc peaks of
# spectral_cluster, dense against CSR, on random graphs of 5 planted blocks
# (one BLAS thread): 54 against 29, 55 and 78 MB at 19%, 36% and 51% nonzero
# for N=1500, and 216 against 116, 221 and 312 MB for N=3000. CSR stayed the
# faster route at every density (N=3000, 100%: 1.9 against 3.2 s).
SPARSE_EIGEN_MAX_DENSITY = 0.35
# Seed of the Lanczos start vector. A start vector of ones or of sqrt(degree)
# missed copies of the zero eigenvalue on 8 identical components (k=5); a
# normal one did not.
LANCZOS_SEED = 0
# ARPACK restart cycles before the Lanczos eigensolve gives up.
LANCZOS_MAX_RESTARTS = 300
# Seeded k-means restarts per kmeans call, and Lloyd assignments per restart.
KMEANS_RESTARTS = 20
KMEANS_MAX_ITERS = 300


@dataclass(frozen=True)
class SpectralConfig:
    """Cluster count, affinity mode, and k-means seed."""

    n_clusters: int
    affinity_mode: str = "sym"
    seed: int = 0

    def __post_init__(self) -> None:
        as_count(self.n_clusters, "n_clusters")
        if self.affinity_mode not in AFFINITY_MODES:
            raise ConfigError(
                f"affinity_mode must be one of {AFFINITY_MODES}, got {self.affinity_mode!r}"
            )
        as_count(self.seed, "seed", 0)


def build_affinity(c, mode: str = "sym") -> np.ndarray | scipy.sparse.csr_array:
    """Symmetrize a coefficient matrix into an affinity graph.

    "sym" returns (C + C^T)/2 and preserves sign; "abs" returns
    (|C| + |C^T|)/2. Either output is exactly symmetric by construction.
    A dense C gives a C-ordered array, whatever C's layout; it is built in
    place, so besides C it takes one N x N array ("sym") or two ("abs"). A
    scipy.sparse C (such as the ssrsc solve's Z from SPARSE_EIGEN_MIN_N
    points on) gives a CSR array with the dense result's bits at its stored
    entries, in O(nnz) memory.
    """
    sparse = scipy.sparse.issparse(c)
    c = _as_square_csr(c, "coefficient matrix") if sparse else as_square_matrix(c, name="coefficient matrix")
    if mode not in AFFINITY_MODES:
        raise ConfigError(f"mode must be one of {AFFINITY_MODES}, got {mode!r}")
    if mode == "abs":
        c = abs(c)
    if sparse:
        out = c + c.T
        out.data /= 2.0
        return out
    out = np.add(c, c.T, order="C")
    out /= 2.0
    return out


def symmetric_eigendecomposition(m, count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    With ``count``, only the ``count`` smallest eigenpairs are computed. A
    scipy.sparse ``m`` with ``count < N - 1`` is solved by Lanczos
    (``scipy.sparse.linalg.eigsh``) from a fixed start vector; every other
    input is solved densely by ``scipy.linalg.eigh``.
    """
    sparse = scipy.sparse.issparse(m)
    m = _as_square_csr(m, name="matrix") if sparse else as_square_matrix(m, name="matrix")
    if abs(m - m.T).max() > SYMMETRY_TOL:
        raise ShapeError("matrix is not symmetric")
    n = m.shape[0]
    if count is not None and not 1 <= count <= n:
        raise ConfigError(f"count must be in [1, {n}], got {count}")
    if sparse:
        if count is not None and count < n - 1:
            return _lanczos_eigenpairs(m, count)
        m = m.toarray()
    subset = None if count is None else [0, count - 1]
    try:
        eigenvalues, eigenvectors = scipy.linalg.eigh(m, subset_by_index=subset, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    return eigenvalues, eigenvectors


def _as_square_csr(values, name: str) -> scipy.sparse.csr_array:
    """Validate a scipy.sparse matrix as finite and square; returns float64 CSR."""
    m = scipy.sparse.csr_array(values, dtype=np.float64)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.data)):
        raise NumericError(f"{name} contains non-finite values")
    return m


def _lanczos_eigenpairs(m: scipy.sparse.csr_array, count: int) -> tuple[np.ndarray, np.ndarray]:
    # The start vector and any restart vector ARPACK asks for come from one
    # generator with a fixed seed, so the result is the same on every call.
    rng = np.random.default_rng(LANCZOS_SEED)
    try:
        eigenvalues, eigenvectors = scipy.sparse.linalg.eigsh(
            m,
            count,
            which="SA",
            v0=rng.standard_normal(m.shape[0]),
            tol=0,
            maxiter=LANCZOS_MAX_RESTARTS,
            rng=rng,
        )
    except scipy.sparse.linalg.ArpackError as exc:
        raise NumericError(f"Lanczos eigensolve failed: {exc}") from exc
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], eigenvectors[:, order]


@single_blas_thread()
def spectral_cluster(a, cfg: SpectralConfig) -> np.ndarray:
    """Segment an affinity graph into cfg.n_clusters groups.

    Forms the symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2} (rows
    with zero degree get a zero scaling factor, leaving their embedding row
    zero), embeds points in the n_clusters bottom eigenvectors, row-normalizes
    to unit length, and labels rows by seeded k-means. ``a`` is a dense
    array or a scipy.sparse matrix, which is not changed. From
    ``SPARSE_EIGEN_MIN_N`` points on, an affinity with less than
    ``SPARSE_EIGEN_MAX_DENSITY`` of its entries nonzero has its Laplacian
    built in CSR and solved by Lanczos, unless the graph has more connected
    components than n_clusters or Lanczos does not converge; every other
    affinity takes the dense route. Deterministic for a fixed config.
    """
    sparse = scipy.sparse.issparse(a)
    a = _as_square_csr(a, "affinity matrix") if sparse else as_square_matrix(a, name="affinity matrix")
    n = a.shape[0]
    if n < SPARSE_EIGEN_MIN_N or (a.nnz if sparse else np.count_nonzero(a)) >= SPARSE_EIGEN_MAX_DENSITY * n * n:
        a = graph = a.toarray() if sparse else a
    else:
        graph = a.copy() if sparse else scipy.sparse.csr_array(a)  # _sparse_embedding scales it
    if abs(graph - graph.T).max() > SYMMETRY_TOL:
        raise ShapeError("affinity matrix is not symmetric")
    if cfg.n_clusters > n:
        raise ConfigError(f"n_clusters={cfg.n_clusters} exceeds number of points {n}")

    degrees = a.sum(axis=1)
    if np.any(degrees < 0):
        raise NumericError("affinity matrix has negative node degrees")
    inv_sqrt = np.zeros(n)
    positive = degrees > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degrees[positive])
    if graph is a:
        laplacian = np.eye(n) - inv_sqrt[:, None] * a * inv_sqrt[None, :]
        laplacian = (laplacian + laplacian.T) / 2.0
        _, embedding = symmetric_eigendecomposition(laplacian, cfg.n_clusters)
    else:
        embedding = _sparse_embedding(graph, inv_sqrt, cfg.n_clusters)
    row_norms = np.linalg.norm(embedding, axis=1)
    scale = np.where(row_norms > 0, row_norms, 1.0)
    embedding = embedding / scale[:, None]

    labels, _ = kmeans(embedding, cfg.n_clusters, seed=cfg.seed)
    return labels


def _sparse_embedding(graph: scipy.sparse.csr_array, inv_sqrt: np.ndarray, k: int) -> np.ndarray:
    """Bottom k eigenvectors of the normalized Laplacian of a CSR affinity graph.

    Scales ``graph`` in place. The Laplacian's ``toarray()`` has the bits of
    the dense Laplacian of spectral_cluster; the dense eigensolve takes it
    when the graph has more than k connected components (the bottom
    eigenspace is then degenerate beyond k) or when Lanczos does not converge.
    """
    # Imported here: the dense path never needs it, and importing it costs
    # every process about 5 ms and 1 MB.
    from scipy.sparse.csgraph import connected_components

    n_components = connected_components(graph, directed=False, return_labels=False)
    rows = np.repeat(np.arange(graph.shape[0]), np.diff(graph.indptr))
    graph.data *= inv_sqrt[rows]
    graph.data *= inv_sqrt[graph.indices]
    laplacian = scipy.sparse.eye_array(graph.shape[0], format="csr") - graph
    laplacian = (laplacian + laplacian.T) / 2.0
    if n_components <= k:
        try:
            return symmetric_eigendecomposition(laplacian, k)[1]
        except NumericError as exc:
            if not isinstance(exc.__cause__, scipy.sparse.linalg.ArpackNoConvergence):
                raise
    return symmetric_eigendecomposition(laplacian.toarray(), k)[1]


def kmeans(points: np.ndarray, k: int, seed: int = 0) -> tuple[np.ndarray, float]:
    """KMEANS_RESTARTS runs of Lloyd iteration; returns (labels, within-cluster SSQ).

    The runs draw their initial centers in turn from one generator of the
    given seed, distance-weighted (each new center drawn with probability
    proportional to squared distance from the chosen set), and then iterate
    together, each stopping after at most KMEANS_MAX_ITERS assignments. The
    run with the lowest objective wins, ties going to the earliest run, so the
    result depends only on the seed. Points whose squared distances overflow
    raise NumericError.
    """
    # C order: the squared distances are summed over a contiguous last axis,
    # so their bits do not depend on the caller's layout.
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ShapeError(f"points must be a non-empty 2-D array, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise NumericError("points contain non-finite values")
    if as_count(k, "k") > points.shape[0]:
        raise ConfigError(f"k must be in [1, {points.shape[0]}], got {k}")
    rng = np.random.default_rng(as_count(seed, "seed", 0))
    centers = np.stack([_seed_centers(points, k, rng) for _ in range(KMEANS_RESTARTS)])
    labels, objectives = _lloyd_restarts(points, centers, KMEANS_MAX_ITERS)
    # An overflowed (inf or NaN) objective never wins.
    finite = np.flatnonzero(objectives < np.inf)
    if finite.size == 0:
        raise NumericError("k-means objective overflowed; rescale the points")
    best = finite[np.argmin(objectives[finite])]  # the first of equal minima
    return labels[best].copy(), float(objectives[best])


def _seed_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if not np.isfinite(total):
            raise NumericError("squared distances between points overflow; rescale the points")
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:
            idx = rng.integers(n)
        centers[i] = points[idx]
        closest = np.minimum(closest, ((points - centers[i]) ** 2).sum(axis=1))
    return centers


def _lloyd(
    points: np.ndarray, k: int, rng: np.random.Generator, max_iters: int
) -> tuple[np.ndarray, float]:
    """One Lloyd run from centers seeded by ``rng``: kmeans's first run on a fresh generator."""
    labels, objectives = _lloyd_restarts(points, _seed_centers(points, k, rng)[None], max_iters)
    return labels[0], float(objectives[0])


def _lloyd_restarts(
    points: np.ndarray, centers: np.ndarray, max_iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iteration of R runs at once from their R x k x d initial centers (updated in place).

    Each run stops when its labels repeat or after max_iters assignments, and
    returns its last labels (R x N) and objective (R). Every step gives each
    run the bits a run of its own would get: a squared distance is
    ``((p - c) ** 2).sum()`` over a contiguous last axis, and the centers are
    member sums in point order (as ``mean(axis=0)`` adds them, from two
    columns on) divided by the member counts; empty clusters keep their center.
    """
    n_runs, k, d = centers.shape
    n = points.shape[0]
    coordinates = np.ascontiguousarray(points.T)
    labels = np.full((n_runs, n), -1, dtype=np.intp)  # no run repeats at the first step
    objectives = np.full(n_runs, np.inf)
    active = np.arange(n_runs)
    for _ in range(max_iters):
        # One center at a time: the (active, N, k, d) broadcast would hold k
        # times the memory for the same bits.
        distances = np.empty((active.size, n, k))
        for j in range(k):
            distances[:, :, j] = ((points - centers[active, j, None, :]) ** 2).sum(axis=-1)
        assigned = distances.argmin(axis=2)  # ties go to the lowest center index
        objective = np.take_along_axis(distances, assigned[:, :, None], axis=2)[:, :, 0].sum(axis=1)
        del distances  # room for the center sums
        previous = objectives[active]
        finite = np.isfinite(previous)
        assert np.all(objective[finite] <= previous[finite] + 1e-9 * (1.0 + previous[finite]))
        moving = (assigned != labels[active]).any(axis=1)
        labels[active] = assigned
        objectives[active] = objective
        active, assigned = active[moving], assigned[moving]
        if active.size == 0:
            break
        # Bin r*k + label of each active run r, laid out one coordinate after another.
        bins = (assigned + k * np.arange(active.size)[:, None]).ravel()
        n_bins = active.size * k
        counts = np.bincount(bins, minlength=n_bins)
        sums = np.bincount(
            (bins + n_bins * np.arange(d)[:, None]).ravel(),
            weights=np.broadcast_to(coordinates[:, None, :], (d, active.size, n)).ravel(),
            minlength=d * n_bins,
        )
        moved = centers[active].reshape(n_bins, d)
        np.divide(sums.reshape(d, n_bins).T, counts[:, None], out=moved, where=counts[:, None] > 0)
        centers[active] = moved.reshape(active.size, k, d)
    return labels, objectives
