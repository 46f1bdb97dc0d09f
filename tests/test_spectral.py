import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexsc import (
    ConfigError,
    NumericError,
    ShapeError,
    SolverConfig,
    SpectralConfig,
    SyntheticSpec,
    build_affinity,
    clustering_error,
    generate_synthetic,
    kmeans,
    run_ablation,
    solve,
    spectral_cluster,
    symmetric_eigendecomposition,
)
from simplexsc import spectral
from simplexsc.spectral import KMEANS_MAX_ITERS, KMEANS_RESTARTS, _lloyd
from oracles import kmeans_reference


class TestBuildAffinity:
    def test_symmetric_nonnegative_input_unchanged(self):
        rng = np.random.default_rng(1)
        c = np.abs(rng.standard_normal((5, 5)))
        c = (c + c.T) / 2
        np.testing.assert_allclose(build_affinity(c, "sym"), c, atol=0)

    def test_symmetric_mode(self):
        c = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(build_affinity(c, "sym"), [[0.0, 0.5], [0.5, 0.0]])

    def test_absolute_mode(self):
        c = np.array([[0.0, -1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(build_affinity(c, "abs"), [[0.0, 0.5], [0.5, 0.0]])

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((30, 30))
        for mode in ("sym", "abs"):
            a = build_affinity(c, mode)
            np.testing.assert_array_equal(a, a.T)

    def test_nonnegative_for_nonnegative_input(self):
        rng = np.random.default_rng(3)
        c = np.abs(rng.standard_normal((10, 10)))
        assert np.all(build_affinity(c, "sym") >= 0)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("mode", ["sym", "abs"])
    def test_either_layout_gives_the_same_bits_in_c_order(self, mode, order):
        c = np.asarray(np.random.default_rng(4).standard_normal((200, 200)), order=order)
        expected = (c + c.T) / 2.0 if mode == "sym" else (np.abs(c) + np.abs(c.T)) / 2.0
        out = build_affinity(c, mode)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("mode, arrays", [("sym", 1), ("abs", 2)])
    def test_builds_in_place(self, mode, arrays):
        # A solver's Z is Fortran-ordered; besides it, "sym" takes only the
        # output and "abs" the output and |Z|.
        n = 600
        c = np.asfortranarray(np.random.default_rng(5).standard_normal((n, n)))
        tracemalloc.start()
        try:
            build_affinity(c, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (arrays + 0.1) * n * n * 8

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            build_affinity(np.zeros((2, 3)), "sym")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            build_affinity(np.eye(2), "squared")


class TestEigendecomposition:
    def test_diagonal_matrix(self):
        values, vectors = symmetric_eigendecomposition(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(values, [1.0, 2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_identity(self):
        values, _ = symmetric_eigendecomposition(np.eye(4))
        np.testing.assert_allclose(values, np.ones(4), atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6))
        m = (m + m.T) / 2
        values, vectors = symmetric_eigendecomposition(m)
        np.testing.assert_allclose(vectors @ np.diag(values) @ vectors.T, m, atol=1e-8)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(6), atol=1e-8)
        assert np.all(np.diff(values) >= -1e-12)

    def test_eigenpairs_satisfy_definition(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((7, 7))
        m = (m + m.T) / 2
        values, vectors = symmetric_eigendecomposition(m)
        scale = 1e-8 * np.linalg.norm(m)
        for i in range(7):
            np.testing.assert_allclose(m @ vectors[:, i], values[i] * vectors[:, i], atol=scale)

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            symmetric_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_count_gives_smallest_eigenpairs(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((8, 8))
        m = (m + m.T) / 2
        all_values, _ = symmetric_eigendecomposition(m)
        for count in (1, 3, 8):
            values, vectors = symmetric_eigendecomposition(m, count)
            assert vectors.shape == (8, count)
            np.testing.assert_allclose(values, all_values[:count], atol=1e-10)
            np.testing.assert_allclose(m @ vectors, vectors * values, atol=1e-10)
            np.testing.assert_allclose(vectors.T @ vectors, np.eye(count), atol=1e-10)

    def test_rejects_count_out_of_range(self):
        for count in (0, 4):
            with pytest.raises(ConfigError):
                symmetric_eigendecomposition(np.eye(3), count)


class TestSpectralCluster:
    def test_two_disconnected_blocks_split_exactly(self):
        a = np.zeros((7, 7))
        a[:3, :3] = 1.0
        a[3:, 3:] = 1.0
        labels = spectral_cluster(a, SpectralConfig(n_clusters=2, seed=0))
        truth = np.array([0, 0, 0, 1, 1, 1, 1])
        assert clustering_error(labels, truth) == 0.0

    def test_single_cluster(self):
        rng = np.random.default_rng(6)
        a = np.abs(rng.standard_normal((5, 5)))
        a = (a + a.T) / 2
        labels = spectral_cluster(a, SpectralConfig(n_clusters=1, seed=0))
        np.testing.assert_array_equal(labels, np.zeros(5, dtype=np.int64))

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(7)
        a = np.abs(rng.standard_normal((12, 12)))
        a = (a + a.T) / 2
        cfg = SpectralConfig(n_clusters=3, seed=42)
        first = spectral_cluster(a, cfg)
        second = spectral_cluster(a, cfg)
        np.testing.assert_array_equal(first, second)

    def test_isolated_point_is_assigned(self):
        a = np.zeros((5, 5))
        a[:4, :4] = 1.0  # node 4 has zero degree
        labels = spectral_cluster(a, SpectralConfig(n_clusters=2, seed=0))
        assert labels.shape == (5,)
        assert np.all(labels < 2)

    def test_laplacian_eigenvalue_range(self):
        rng = np.random.default_rng(8)
        a = np.abs(rng.standard_normal((15, 15)))
        a = (a + a.T) / 2
        degrees = a.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(degrees)
        lap = np.eye(15) - inv_sqrt[:, None] * a * inv_sqrt[None, :]
        values, _ = symmetric_eigendecomposition((lap + lap.T) / 2)
        assert values.min() >= -1e-8
        assert values.max() <= 2.0 + 1e-8

    def test_rejects_too_many_clusters(self):
        with pytest.raises(ConfigError):
            spectral_cluster(np.eye(3), SpectralConfig(n_clusters=4, seed=0))

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            spectral_cluster(np.array([[0.0, 1.0], [0.5, 0.0]]), SpectralConfig(n_clusters=1))

    def test_rejects_negative_degrees(self):
        a = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(NumericError):
            spectral_cluster(a, SpectralConfig(n_clusters=2, seed=0))


class TestKmeans:
    def test_obvious_clusters(self):
        rng = np.random.default_rng(9)
        points = np.vstack([rng.normal(0, 0.05, (20, 2)), rng.normal(5, 0.05, (20, 2))])
        labels, _ = kmeans(points, 2, seed=1)
        truth = np.repeat([0, 1], 20)
        assert clustering_error(labels, truth) == 0.0

    def test_restart_count_improves_or_keeps_objective(self):
        # The first restart is _lloyd on a fresh generator of the seed.
        rng = np.random.default_rng(10)
        points = rng.standard_normal((40, 3))
        _, best = kmeans(points, 4, seed=3)
        _, first = _lloyd(points, 4, np.random.default_rng(3), KMEANS_MAX_ITERS)
        assert best <= first

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        points = rng.standard_normal((30, 2))
        a_labels, a_obj = kmeans(points, 3, seed=5)
        b_labels, b_obj = kmeans(points, 3, seed=5)
        np.testing.assert_array_equal(a_labels, b_labels)
        assert a_obj == b_obj

    def test_objective_monotone_within_lloyd_run(self):
        # _lloyd asserts monotonicity internally; drive it directly
        rng = np.random.default_rng(12)
        points = rng.standard_normal((50, 4))
        for _ in range(20):
            _lloyd(points, 5, rng, max_iters=KMEANS_MAX_ITERS)

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((3, 2)), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(NumericError):
            kmeans(np.array([[bad, 0.0], [0.0, 1.0], [1.0, 0.0]]), 2)

    @pytest.mark.parametrize("k", [1, 2])
    def test_overflowing_distances_raise_numeric_error(self, k):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            kmeans(np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 0.0]]), k)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ConfigError):
            kmeans(np.arange(8.0).reshape(4, 2), 2, seed=seed)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 200),
        d=st.integers(2, 4),
        k=st.integers(1, 6),
        kind=st.sampled_from(["normal", "integer grid", "few distinct points"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_restart_by_restart_reference(self, seed, n, d, k, kind):
        # Integer grids give exact ties between centers; fewer distinct points
        # than k give duplicate seeds and clusters that stay empty.
        rng = np.random.default_rng(seed)
        k = min(k, n)
        if kind == "normal":
            points = rng.standard_normal((n, d))
        elif kind == "integer grid":
            points = rng.integers(-2, 3, (n, d)).astype(float)
        else:
            distinct = rng.standard_normal((int(rng.integers(1, k + 1)), d))
            points = distinct[rng.integers(0, distinct.shape[0], n)]
        labels, objective = kmeans(points, k, seed=seed)
        expected_labels, expected_objective = kmeans_reference(points, k, seed, KMEANS_RESTARTS, KMEANS_MAX_ITERS)
        np.testing.assert_array_equal(labels, expected_labels)
        assert objective == expected_objective

    @given(
        seed=st.integers(0, 2**32 - 1),
        runs=st.integers(1, 4),
        k=st.integers(1, 6),
        n=st.integers(1, 40),
        special=st.sampled_from([None, np.nan, np.inf]),
    )
    @settings(max_examples=200, deadline=None)
    def test_nearest_center_is_argmin_and_min(self, seed, runs, k, n, special):
        # Distances from three values tie often; a NaN or inf lands on some
        # entries of some runs.
        rng = np.random.default_rng(seed)
        distances = rng.choice([0.0, 1.0, 2.5], size=(runs, k, n))
        if special is not None:
            distances[rng.random(distances.shape) < rng.choice([0.02, 0.3])] = special
        labels, objective = spectral._nearest(distances.copy())
        assert labels.dtype == np.intp
        np.testing.assert_array_equal(labels, distances.argmin(axis=1))
        assert np.array_equal(objective, distances.min(axis=1).sum(axis=1), equal_nan=True)

    def test_one_column_points_agree_with_the_reference_to_rounding(self):
        # numpy's mean sums a one-column member array pairwise, kmeans in
        # point order, so the centers and the objective may differ in the
        # last bits; from two columns on both add in point order.
        rng = np.random.default_rng(14)
        for trial in range(40):
            points = rng.standard_normal((int(rng.integers(10, 200)), 1))
            k = int(rng.integers(1, 7))
            labels, objective = kmeans(points, k, seed=trial)
            expected_labels, expected_objective = kmeans_reference(
                points, k, trial, KMEANS_RESTARTS, KMEANS_MAX_ITERS
            )
            np.testing.assert_array_equal(labels, expected_labels)
            assert objective == pytest.approx(expected_objective, rel=1e-12)

    @pytest.mark.parametrize("d", [8, 9, 12, 16])
    def test_equals_the_reference_from_eight_columns_on(self, d):
        # From eight columns on numpy adds a row's squares pairwise, not in
        # column order, and kmeans must add them as numpy does.
        rng = np.random.default_rng(19 + d)
        for trial in range(9):
            n, k = int(rng.integers(20, 120)), int(rng.integers(1, 11))
            if trial % 3 == 0:
                points = rng.standard_normal((n, d))
            elif trial % 3 == 1:
                points = rng.integers(-2, 3, (n, d)).astype(float)
            else:
                points = rng.standard_normal((max(1, k - 1), d))[rng.integers(0, max(1, k - 1), n)]
            labels, objective = kmeans(points, k, seed=trial)
            expected_labels, expected_objective = kmeans_reference(points, k, trial, KMEANS_RESTARTS, KMEANS_MAX_ITERS)
            np.testing.assert_array_equal(labels, expected_labels)
            assert objective == expected_objective

    @pytest.mark.parametrize("kind", ["normal", "integer grid", "few distinct points"])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_batched_seeding_draws_what_seed_centers_draws(self, k, kind, monkeypatch):
        # All restarts take their next center at once, from the uniforms that
        # Generator.choice would draw one at a time. Fewer distinct points
        # than k make _seed_centers draw an integer, so every restart is then
        # drawn by _seed_centers itself.
        rng = np.random.default_rng(20 + k)
        if kind == "normal":
            points = rng.standard_normal((60, 3))
        elif kind == "integer grid":
            points = rng.integers(-2, 3, (60, 3)).astype(float)
        else:
            points = rng.standard_normal((max(1, k - 1), 3))[rng.integers(0, max(1, k - 1), 60)]
        seed_centers = spectral._seed_centers
        generator = np.random.default_rng(k)
        expected = np.stack([seed_centers(points, k, generator) for _ in range(KMEANS_RESTARTS)])
        calls = []
        monkeypatch.setattr(spectral, "_seed_centers", lambda *args: calls.append(1) or seed_centers(*args))
        centers = spectral._seed_restarts(points, np.ascontiguousarray(points.T), k, k)
        np.testing.assert_array_equal(centers, expected)
        assert len(calls) == (KMEANS_RESTARTS if kind == "few distinct points" and k > 1 else 0)

    def test_batched_seeding_raises_when_the_distances_overflow(self):
        points = np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 0.0]])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            spectral._seed_restarts(points, np.ascontiguousarray(points.T), 2, 0)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_lloyd_on_a_fresh_generator_is_the_first_restart(self, seed, monkeypatch):
        points = np.random.default_rng(15).standard_normal((60, 3))
        labels, objective = _lloyd(points, 4, np.random.default_rng(seed), KMEANS_MAX_ITERS)
        expected_labels, expected_objective = kmeans_reference(points, 4, seed, 1, KMEANS_MAX_ITERS)
        np.testing.assert_array_equal(labels, expected_labels)
        assert objective == expected_objective
        monkeypatch.setattr(spectral, "KMEANS_RESTARTS", 1)
        first_labels, first_objective = kmeans(points, 4, seed=seed)
        np.testing.assert_array_equal(first_labels, labels)
        assert first_objective == objective

    def test_labels_do_not_depend_on_the_memory_layout(self):
        # A Fortran-ordered array summed its squared distances in another
        # order, which changed the objective in 3 of these 20 trials.
        rng = np.random.default_rng(16)
        for trial in range(20):
            points = rng.standard_normal((40, 12))
            c_labels, c_objective = kmeans(points, 4, seed=trial)
            f_labels, f_objective = kmeans(np.asfortranarray(points), 4, seed=trial)
            np.testing.assert_array_equal(f_labels, c_labels)
            assert f_objective == c_objective

    @pytest.mark.slow
    def test_memory_at_n3000_k5(self):
        rng = np.random.default_rng(17)
        points = np.repeat(rng.standard_normal((5, 5)) * 3, 600, axis=0) + rng.standard_normal((3000, 5))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            labels, _ = kmeans(points, 5, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labels.shape == (3000,)
        # The (20, N, k, d) broadcast of every distance at once took 21 MB.
        assert peak <= 12e6


class TestSpectralConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_clusters": 0},
            {"n_clusters": 2.0},
            {"n_clusters": 2, "affinity_mode": "cosine"},
            {"n_clusters": 2, "seed": -1},
        ],
        # Case names predate the removed kmeans_* fields, whose cases were kwargs3-5.
        ids=["kwargs0", "kwargs1", "kwargs2", "kwargs6"],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SpectralConfig(**kwargs)

    def test_fields(self):
        assert [f.name for f in fields(SpectralConfig)] == ["n_clusters", "affinity_mode", "seed"]


def planted_graph(sizes, rng, leak=0.0, isolated=0):
    """Symmetric non-negative affinity with one connected block per entry of sizes.

    Each block is a ring plus random edges; ``leak`` adds weak edges between
    blocks and ``isolated`` appends points of zero degree.
    """
    n = int(sum(sizes)) + isolated
    a = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = rng.random((size, size)) * (rng.random((size, size)) < 0.05)
        idx = np.arange(size)
        block[idx, (idx + 1) % size] += 1.0
        a[start : start + size, start : start + size] = block
        start += size
    if leak:
        a[: start, : start] += leak * rng.random((start, start)) * (rng.random((start, start)) < 0.01)
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    return a


def block_truth(sizes):
    return np.repeat(np.arange(len(sizes)), sizes)


def dense_labels(monkeypatch, a, cfg):
    """spectral_cluster's labels with the dense eigensolve at every N."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "SPARSE_EIGEN_MIN_N", a.shape[0] + 1)
        return spectral_cluster(a, cfg)


def record_eigensolves(monkeypatch):
    """Swap in a symmetric_eigendecomposition that records its inputs."""
    calls = []
    original = spectral.symmetric_eigendecomposition

    def recording(m, count=None):
        calls.append(m)
        return original(m, count)

    monkeypatch.setattr(spectral, "symmetric_eigendecomposition", recording)
    return calls


@pytest.fixture(scope="module")
def fixture_1200():
    """Affinity of the ssrsc solve of a noiseless N=1200 fixture (4 subspaces)."""
    dataset = generate_synthetic(SyntheticSpec(40, 4, 4, 300, 0.01, seed=7))
    solved = solve(dataset.data, SolverConfig())
    return build_affinity(solved.coefficients, "sym"), dataset.labels


class TestSparseEigendecomposition:
    def laplacian(self, seed=0):
        rng = np.random.default_rng(seed)
        a = planted_graph([300, 400, 500], rng, leak=0.05)
        degrees = a.sum(axis=1)
        lap = np.eye(a.shape[0]) - a / np.sqrt(np.outer(degrees, degrees))
        return (lap + lap.T) / 2.0

    def test_matches_dense_subset_eigh(self):
        lap = self.laplacian()
        for count in (1, 3, 6):
            dense_values, dense_vectors = symmetric_eigendecomposition(lap, count)
            values, vectors = symmetric_eigendecomposition(scipy.sparse.csr_array(lap), count)
            np.testing.assert_allclose(values, dense_values, rtol=0, atol=1e-10)
            cosines = np.linalg.svd(dense_vectors.T @ vectors, compute_uv=False)
            assert cosines.min() >= 1.0 - 1e-10
            np.testing.assert_allclose(vectors.T @ vectors, np.eye(count), atol=1e-10)

    def test_repeats_bit_for_bit(self):
        # The second Laplacian has a 5-dimensional null space, so its
        # bottom 4 eigenvectors are one basis chosen by the solver.
        blocks = scipy.sparse.csr_array(np.kron(np.eye(5), np.ones((240, 240))))
        for lap in (
            scipy.sparse.csr_array(self.laplacian(1)),
            scipy.sparse.eye_array(1200, format="csr") - blocks / 240.0,
        ):
            first = symmetric_eigendecomposition(lap, 4)
            second = symmetric_eigendecomposition(lap, 4)
            np.testing.assert_array_equal(first[0], second[0])
            np.testing.assert_array_equal(first[1], second[1])

    def test_finds_every_copy_of_a_repeated_eigenvalue(self):
        # 8 identical components: a start vector of ones or sqrt(degree)
        # returned 0 once and then the next eigenvalue of each block
        block = np.ones((150, 150)) - np.eye(150)
        a = scipy.sparse.block_diag([block] * 8, format="csr")
        lap = scipy.sparse.eye_array(1200, format="csr") - a / 149.0
        values, vectors = symmetric_eigendecomposition(lap, 5)
        np.testing.assert_allclose(values, np.zeros(5), atol=1e-10)
        np.testing.assert_allclose(lap @ vectors, np.zeros((1200, 5)), atol=1e-10)

    def test_count_near_n_is_solved_densely(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 6))
        m = (m + m.T) / 2.0
        for count in (None, 5, 6):
            values, _ = symmetric_eigendecomposition(scipy.sparse.csr_array(m), count)
            np.testing.assert_allclose(values, symmetric_eigendecomposition(m, count)[0], atol=1e-12)

    def test_rejects_asymmetric(self):
        m = scipy.sparse.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ShapeError):
            symmetric_eigendecomposition(m, 1)

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            symmetric_eigendecomposition(scipy.sparse.csr_array(np.ones((2, 3))), 1)

    def test_rejects_count_out_of_range(self):
        m = scipy.sparse.eye_array(5, format="csr")
        for count in (0, 6):
            with pytest.raises(ConfigError):
                symmetric_eigendecomposition(m, count)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            m = scipy.sparse.eye_array(5, format="csr")
            m.data[2] = bad
            with pytest.raises(NumericError):
                symmetric_eigendecomposition(m, 2)

    def test_arpack_errors_are_numeric_errors(self, monkeypatch):
        def failing(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
        with pytest.raises(NumericError):
            symmetric_eigendecomposition(scipy.sparse.eye_array(5, format="csr"), 2)


class TestSparseSpectralCluster:
    def test_large_graph_takes_lanczos(self, monkeypatch, fixture_1200):
        a, truth = fixture_1200
        calls = record_eigensolves(monkeypatch)
        labels = spectral_cluster(a, SpectralConfig(n_clusters=4, seed=7))
        assert [scipy.sparse.issparse(m) for m in calls] == [True]
        assert clustering_error(labels, truth) == 0.0

    def test_labels_equal_the_dense_path(self, monkeypatch, fixture_1200):
        a, _ = fixture_1200
        for seed in (0, 7):
            cfg = SpectralConfig(n_clusters=4, seed=seed)
            np.testing.assert_array_equal(spectral_cluster(a, cfg), dense_labels(monkeypatch, a, cfg))

    def test_exactly_k_identical_blocks_split_exactly(self, monkeypatch):
        sizes = [240] * 5
        a = np.kron(np.eye(5), np.ones((240, 240)))
        calls = record_eigensolves(monkeypatch)
        labels = spectral_cluster(a, SpectralConfig(n_clusters=5, seed=0))
        assert [scipy.sparse.issparse(m) for m in calls] == [True]
        assert clustering_error(labels, block_truth(sizes)) == 0.0

    def test_more_components_than_k_take_the_dense_eigensolve(self, monkeypatch):
        rng = np.random.default_rng(3)
        a = planted_graph([200] * 6, rng, isolated=3)
        a[5, 7] = a[7, 5] = -1e-3  # a signed entry
        cfg = SpectralConfig(n_clusters=4, seed=1)
        expected = dense_labels(monkeypatch, a, cfg)
        calls = record_eigensolves(monkeypatch)
        labels = spectral_cluster(a, cfg)
        assert [scipy.sparse.issparse(m) for m in calls] == [False]
        np.testing.assert_array_equal(labels, expected)
        # the CSR Laplacian has the bits of the dense formula
        degrees = a.sum(axis=1)
        inv_sqrt = np.zeros(a.shape[0])
        inv_sqrt[degrees > 0] = 1.0 / np.sqrt(degrees[degrees > 0])
        lap = np.eye(a.shape[0]) - inv_sqrt[:, None] * a * inv_sqrt[None, :]
        np.testing.assert_array_equal(calls[0], (lap + lap.T) / 2.0)

    def test_no_convergence_falls_back_to_the_dense_result(self, monkeypatch, fixture_1200):
        a, _ = fixture_1200
        cfg = SpectralConfig(n_clusters=4, seed=2)
        expected = dense_labels(monkeypatch, a, cfg)

        def stalling(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalling)
        calls = record_eigensolves(monkeypatch)
        labels = spectral_cluster(a, cfg)
        assert [scipy.sparse.issparse(m) for m in calls] == [True, False]
        np.testing.assert_array_equal(labels, expected)

    def test_other_arpack_errors_are_raised(self, monkeypatch, fixture_1200):
        a, _ = fixture_1200

        def failing(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
        with pytest.raises(NumericError):
            spectral_cluster(a, SpectralConfig(n_clusters=4, seed=0))

    def test_large_asymmetric_graph_is_rejected(self, fixture_1200):
        a = fixture_1200[0].toarray()
        a[0, 1] += 1e-6
        with pytest.raises(ShapeError):
            spectral_cluster(a, SpectralConfig(n_clusters=4))

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 5),
        extra_blocks=st.integers(0, 3),
        isolated=st.integers(0, 3),
        large=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_graphs_with_at_least_k_components(self, seed, k, extra_blocks, isolated, large):
        rng = np.random.default_rng(seed)
        n_blocks = k + extra_blocks
        total = int(rng.integers(spectral.SPARSE_EIGEN_MIN_N, 1300) if large else rng.integers(64, 200))
        sizes = 4 + rng.multinomial(total - 4 * n_blocks, np.full(n_blocks, 1.0 / n_blocks))
        a = planted_graph(sizes, rng, isolated=isolated)
        cfg = SpectralConfig(n_clusters=k, seed=seed % 1000)
        labels = spectral_cluster(a, cfg)
        assert labels.shape == (a.shape[0],)
        assert labels.min() >= 0 and labels.max() < k
        np.testing.assert_array_equal(spectral_cluster(a, cfg), labels)
        if extra_blocks == 0 and isolated == 0:
            assert clustering_error(labels, block_truth(sizes)) == 0.0


class TestSparseInputs:
    """Affinities and coefficient matrices given as scipy.sparse matrices."""

    @pytest.mark.parametrize("mode", ["sym", "abs"])
    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    def test_build_affinity_has_the_dense_bits(self, fmt, mode):
        rng = np.random.default_rng(22)
        c = scipy.sparse.random_array((300, 300), density=0.05, format=fmt, rng=rng, data_sampler=rng.standard_normal)
        before = c.toarray()
        a = build_affinity(c, mode)
        assert a.format == "csr"
        np.testing.assert_array_equal(a.toarray(), build_affinity(before, mode))
        np.testing.assert_array_equal(c.toarray(), before)

    def test_spectral_cluster_gives_the_dense_labels_at_n150(self):
        for seed in range(5):
            dataset = generate_synthetic(SyntheticSpec(30, 4, 3, 50, 0.01, seed=seed))
            a = build_affinity(solve(dataset.data, SolverConfig()).coefficients, "sym")
            cfg = SpectralConfig(n_clusters=3, seed=seed)
            np.testing.assert_array_equal(spectral_cluster(scipy.sparse.csr_array(a), cfg), spectral_cluster(a, cfg))

    def test_spectral_cluster_gives_the_dense_labels_at_n1200(self, fixture_1200):
        a, truth = fixture_1200
        assert isinstance(a, scipy.sparse.csr_array)  # from the CSR solve's Z
        before = a.copy()
        for seed in (0, 7):
            cfg = SpectralConfig(n_clusters=4, seed=seed)
            labels = spectral_cluster(a, cfg)
            np.testing.assert_array_equal(labels, spectral_cluster(a.toarray(), cfg))
            assert clustering_error(labels, truth) == 0.0
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(a, part), getattr(before, part))

    def test_dense_graph_takes_the_dense_eigensolve(self, monkeypatch):
        # Every entry nonzero: above SPARSE_EIGEN_MAX_DENSITY at any N.
        sizes = [250] * 4
        a = np.kron(np.eye(4), np.ones((250, 250))) + 0.01 * np.random.default_rng(23).random((1000, 1000))
        a = (a + a.T) / 2.0
        cfg = SpectralConfig(n_clusters=4, seed=2)
        calls = record_eigensolves(monkeypatch)
        labels = spectral_cluster(a, cfg)
        assert [scipy.sparse.issparse(m) for m in calls] == [False]
        assert clustering_error(labels, block_truth(sizes)) == 0.0
        np.testing.assert_array_equal(spectral_cluster(scipy.sparse.csr_array(a), cfg), labels)
        assert [scipy.sparse.issparse(m) for m in calls] == [False, False]
        # The CSR route, which such a graph took before, gives the same labels.
        monkeypatch.setattr(spectral, "SPARSE_EIGEN_MAX_DENSITY", 1.5)
        np.testing.assert_array_equal(spectral_cluster(a, cfg), labels)
        assert scipy.sparse.issparse(calls[-1])


class TestSparseDeterminism:
    def test_cli_document_is_the_same_for_one_and_four_blas_threads(self, tmp_path):
        documents = []
        for threads in ("1", "4"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            path = tmp_path / f"threads{threads}.txt"
            proc = subprocess.run(
                [sys.executable, "-m", "simplexsc.cli", "--synthetic", "40,4,4,300,0.01",
                 "--seed", "7", "--output", str(path)],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            documents.append(path.read_bytes())
        assert documents[0] == documents[1]

    def test_ablation_workers_do_not_change_results(self):
        dataset = generate_synthetic(SyntheticSpec(40, 4, 4, 250, 0.1, seed=5))
        grid = [SolverConfig(model="ssrsc"), SolverConfig(model="slsr", lam=0.1)]
        spectral_cfg = SpectralConfig(n_clusters=4, affinity_mode="abs", seed=5)
        serial = run_ablation(dataset, grid, spectral_cfg, workers=1)
        threaded = run_ablation(dataset, grid, spectral_cfg, workers=2)
        assert all(row.failure is None for row in serial.rows + threaded.rows)
        assert [r.error_rate for r in serial.rows] == [r.error_rate for r in threaded.rows]

    def test_concurrent_calls_give_the_serial_labels(self, fixture_1200):
        a, _ = fixture_1200
        cfg = SpectralConfig(n_clusters=4, seed=3)
        serial = spectral_cluster(a, cfg)
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(lambda _: spectral_cluster(a, cfg), range(4)))
        for labels in results:
            np.testing.assert_array_equal(labels, serial)
