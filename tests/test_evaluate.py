import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexsc import (
    ConfigError,
    DomainError,
    ShapeError,
    SolverConfig,
    SpectralConfig,
    SyntheticSpec,
    affinity_diagnostics,
    build_affinity,
    clustering_error,
    generate_synthetic,
    run_ablation,
    solve,
)

from oracles import exhaustive_permutation_error


class TestClusteringError:
    def test_identical_labels(self):
        labels = np.array([0, 1, 2, 1, 0])
        assert clustering_error(labels, labels) == 0.0

    def test_permuted_names_are_free(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        renamed = np.array([2, 2, 0, 0, 1, 1])
        assert clustering_error(renamed, truth) == 0.0

    def test_quarter_error_case(self):
        assert clustering_error([0, 0, 1, 1], [0, 1, 1, 1]) == 0.25
        assert exhaustive_permutation_error([0, 0, 1, 1], [0, 1, 1, 1]) == 0.25

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            size = int(rng.integers(4, 25))
            pred = rng.integers(0, n, size)
            truth = rng.integers(0, n, size)
            assert clustering_error(pred, truth) == exhaustive_permutation_error(pred, truth)

    def test_symmetry_with_equal_label_sets(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            pred = rng.integers(0, 4, 20)
            truth = rng.integers(0, 4, 20)
            assert clustering_error(pred, truth) == clustering_error(truth, pred)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_joint_point_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(3, 20))
        pred = rng.integers(0, 3, size)
        truth = rng.integers(0, 3, size)
        perm = rng.permutation(size)
        assert clustering_error(pred, truth) == clustering_error(pred[perm], truth[perm])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            clustering_error([0, 1], [0, 1, 2])


class TestAffinityDiagnostics:
    def test_block_diagonal_zero_diag_is_all_within(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        a[2, 3] = a[3, 2] = 2.0
        within, between, diag = affinity_diagnostics(a, [0, 0, 1, 1])
        assert within == pytest.approx(1.0, abs=1e-12)
        assert between == pytest.approx(0.0, abs=1e-12)
        assert diag == pytest.approx(0.0, abs=1e-12)

    def test_identity_is_all_diagonal(self):
        _, _, diag = affinity_diagnostics(np.eye(5), [0, 1, 0, 1, 0])
        assert diag == pytest.approx(1.0, abs=1e-12)

    def test_masses_sum_to_one(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a = np.abs(rng.standard_normal((8, 8)))
            a = (a + a.T) / 2
            truth = rng.integers(0, 3, 8)
            within, between, diag = affinity_diagnostics(a, truth)
            for mass in (within, between, diag):
                assert 0.0 <= mass <= 1.0
            assert within + between + diag == pytest.approx(1.0, abs=1e-10)

    def test_fixture_affinity_mass_split(self):
        # converged-at-defaults affinity on the orthogonal-subspace fixture:
        # heavy within-cluster mass, the rest on the diagonal (the model keeps
        # self-representation), and no between-cluster leakage
        dataset = generate_synthetic(SyntheticSpec(30, 4, 3, 50, 0.0, seed=0))
        solved = solve(dataset.data, SolverConfig(model="ssrsc"))
        affinity = build_affinity(solved.coefficients, "sym")
        within, between, diag = affinity_diagnostics(affinity, dataset.labels)
        assert within >= 0.55
        assert between <= 1e-6
        assert diag == pytest.approx(1.0 - within - between, abs=1e-10)
        # From SPARSE_EIGEN_MIN_N points on, the ssrsc pipeline's affinity is CSR.
        assert affinity_diagnostics(scipy.sparse.csr_array(affinity), dataset.labels) == (within, between, diag)

    def test_rejects_negative_entries(self):
        a = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(DomainError):
            affinity_diagnostics(a, [0, 1])

    def test_rejects_zero_mass(self):
        with pytest.raises(DomainError):
            affinity_diagnostics(np.zeros((3, 3)), [0, 1, 2])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            affinity_diagnostics(np.eye(3), [0, 1])


@pytest.fixture(scope="module")
def small_dataset():
    return generate_synthetic(SyntheticSpec(12, 2, 2, 10, 0.01, seed=3))


class TestRunAblation:
    def test_empty_grid(self, small_dataset):
        report = run_ablation(small_dataset, [], SpectralConfig(n_clusters=2))
        assert report.rows == []

    def test_rows_follow_grid_order_and_are_deterministic(self, small_dataset):
        grid = [
            SolverConfig(model="lsr", lam=0.01),
            SolverConfig(model="ssrsc", lam=0.01),
            SolverConfig(model="ssrsc", lam=0.01),
        ]
        spectral = SpectralConfig(n_clusters=2, affinity_mode="abs", seed=0)
        report = run_ablation(small_dataset, grid, spectral)
        assert [row.model for row in report.rows] == ["lsr", "ssrsc", "ssrsc"]
        assert report.rows[1].error_rate == report.rows[2].error_rate
        again = run_ablation(small_dataset, grid, spectral)
        assert [r.error_rate for r in report.rows] == [r.error_rate for r in again.rows]

    def test_workers_do_not_change_results(self, small_dataset):
        grid = [
            SolverConfig(model=m, lam=lam)
            for m in ("lsr", "nlsr", "slsr", "ssrsc")
            for lam in (0.001, 0.1)
        ]
        spectral = SpectralConfig(n_clusters=2, affinity_mode="abs", seed=1)
        serial = run_ablation(small_dataset, grid, spectral, workers=1)
        threaded = run_ablation(small_dataset, grid, spectral, workers=4)
        assert [r.error_rate for r in serial.rows] == [r.error_rate for r in threaded.rows]
        assert [r.iterations_used for r in serial.rows] == [
            r.iterations_used for r in threaded.rows
        ]

    def test_failed_row_is_marked_not_raised(self, small_dataset):
        # zero_diagonal at N=1 cannot happen here; instead force a numeric
        # failure via the sym affinity on the signed lsr output with a graph
        # whose degrees go negative on adversarial data
        bad = SolverConfig(model="ssrsc", zero_diagonal=True)
        tiny = generate_synthetic(SyntheticSpec(3, 1, 1, 1, 0.0, seed=0))
        report = run_ablation(tiny, [bad], SpectralConfig(n_clusters=1, seed=0))
        assert report.rows[0].error_rate is None
        assert report.rows[0].failure is not None

    def test_failed_svd_marks_the_row_failed(self, small_dataset, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        grid = [SolverConfig(model="lsr"), SolverConfig(model="ssrsc")]
        report = run_ablation(small_dataset, grid, SpectralConfig(n_clusters=2))
        assert [row.error_rate for row in report.rows] == [None, None]
        assert all(row.failure.startswith("NumericError") for row in report.rows)

    def test_requires_labels(self, small_dataset):
        unlabeled = type(small_dataset)(small_dataset.data, None)
        with pytest.raises(ConfigError):
            run_ablation(unlabeled, [], SpectralConfig(n_clusters=2))

    def test_simplex_model_leads_on_noiseless_fixture(self):
        dataset = generate_synthetic(SyntheticSpec(30, 4, 3, 50, 0.0, seed=1))
        grid = [SolverConfig(model=m, lam=0.01) for m in ("lsr", "nlsr", "slsr", "ssrsc")]
        spectral = SpectralConfig(n_clusters=3, affinity_mode="abs", seed=1)
        report = run_ablation(dataset, grid, spectral)
        errors = {row.model: row.error_rate for row in report.rows}
        assert all(e is not None for e in errors.values())
        for model in ("lsr", "nlsr", "slsr"):
            assert errors["ssrsc"] <= errors[model] + 0.02

    def test_report_serialization(self, small_dataset, tmp_path):
        grid = [SolverConfig(model="ssrsc", lam=0.01)]
        report = run_ablation(small_dataset, grid, SpectralConfig(n_clusters=2, seed=0))
        report.to_csv(tmp_path / "report.csv")
        lines = (tmp_path / "report.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("model,lambda,s,error_rate")
        assert lines[1].startswith("ssrsc,0.01,0.5,")
        table = report.format_table()
        assert "ssrsc" in table and "error" in table
