import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from simplexsc import (
    ConfigError,
    DivergenceError,
    NumericError,
    SolverConfig,
    SyntheticSpec,
    generate_synthetic,
    frobenius_distance,
    precompute_kernel,
    project_scaled_simplex,
    regularized_gram_inverse,
    solve,
    solve_lsr,
    solve_nlsr,
    solve_slsr,
    solve_ssrsc,
)
from simplexsc import solvers, spectral
from simplexsc.core import MODELS
from simplexsc.solvers import _c_step_factor, _project_off_diagonal

from oracles import (
    _project_columns_simplex,
    admm_with_inverse,
    hyperplane_column_oracle,
    nnls_column_oracle,
    pgd_ssrsc_oracle,
    qp_simplex_oracle,
    ssrsc_column_oracle,
)

TIGHT = dict(max_iters=20000, tol=1e-10)


@pytest.fixture
def started_threads(monkeypatch):
    """Names of the threads started while the test runs."""
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


def tight_cfg(model, **kwargs):
    return SolverConfig(model=model, **{**TIGHT, **kwargs})


class TestRegularizedGramInverse:
    def test_zero_data(self):
        out = regularized_gram_inverse(np.zeros((3, 4)), 0.5, mode="direct")
        np.testing.assert_allclose(out, 2.0 * np.eye(4), atol=1e-12)

    def test_scalar_case(self):
        out = regularized_gram_inverse(np.array([[2.0]]), 1.0, mode="direct")
        np.testing.assert_allclose(out, [[0.2]], atol=1e-12)

    def test_woodbury_matches_direct(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((3, 20))
        direct = regularized_gram_inverse(x, 0.25, mode="direct")
        woodbury = regularized_gram_inverse(x, 0.25, mode="woodbury")
        assert frobenius_distance(direct, woodbury) <= 1e-8

    def test_auto_picks_by_shape(self):
        rng = np.random.default_rng(2)
        wide = rng.standard_normal((2, 6))
        np.testing.assert_array_equal(
            regularized_gram_inverse(wide, 1.0, mode="auto"),
            regularized_gram_inverse(wide, 1.0, mode="woodbury"),
        )
        tall = rng.standard_normal((6, 3))
        np.testing.assert_array_equal(
            regularized_gram_inverse(tall, 1.0, mode="auto"),
            regularized_gram_inverse(tall, 1.0, mode="direct"),
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            regularized_gram_inverse(np.eye(2), 0.0)
        with pytest.raises(ConfigError):
            regularized_gram_inverse(np.eye(2), 1.0, mode="fast")

    def test_kernel_invariant(self):
        rng = np.random.default_rng(31)
        for mode in ("direct", "woodbury"):
            x = rng.standard_normal((4, 9))
            inverse = regularized_gram_inverse(x, 0.25, mode)
            identity = inverse @ (x.T @ x + 0.25 * np.eye(9))
            assert frobenius_distance(identity, np.eye(9)) <= 1e-8
            # the kernel's factors give the same inverse: I/shift - V diag(ridge/shift) V^T
            kernel = precompute_kernel(x, 0.25)
            factored = (np.eye(9) - kernel.vt.T @ (kernel.ridge[:, None] * kernel.vt)) / 0.25
            assert frobenius_distance(factored, inverse) <= 1e-8


class TestLsr:
    def test_identity_data(self):
        np.testing.assert_allclose(solve_lsr(np.eye(3), 1.0), 0.5 * np.eye(3), atol=1e-12)

    def test_orthonormal_columns_small_lambda(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
        np.testing.assert_allclose(solve_lsr(q, 1e-10), np.eye(4), atol=1e-6)

    def test_stationarity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        lam = 0.1
        c = solve_lsr(x, lam)
        gradient = 2.0 * x.T @ x @ c - 2.0 * x.T @ x + 2.0 * lam * c
        assert np.max(np.abs(gradient)) <= 1e-8

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ConfigError):
            solve_lsr(np.eye(2), 0.0)


class TestSsrsc:
    def test_single_point_is_pinned_to_scale(self):
        result = solve_ssrsc(np.array([[3.7]]), SolverConfig(model="ssrsc", s=0.5))
        np.testing.assert_allclose(result.coefficients, [[0.5]], atol=1e-12)

    def test_identity_columns_hit_simplex_vertex(self):
        # per-column optimum (3+lam)/(4+4*lam) ~ 0.7045 exceeds the cap, so the
        # solution sits at the vertex [s, 0]
        result = solve_ssrsc(np.eye(2), tight_cfg("ssrsc", lam=0.1, s=0.5))
        np.testing.assert_allclose(result.coefficients, [[0.5, 0.0], [0.0, 0.5]], atol=1e-6)

    def test_feasibility_of_output(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.standard_normal((5, 12))
            result = solve_ssrsc(x, SolverConfig(model="ssrsc"))
            z = result.coefficients
            assert np.all(z >= 0.0)
            np.testing.assert_allclose(z.sum(axis=0), 0.5, atol=1e-8 * 12)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(77)
        x = rng.standard_normal((5, 8))
        result = solve_ssrsc(x, tight_cfg("ssrsc", lam=0.05))
        oracle = pgd_ssrsc_oracle(x, 0.05, 0.5, iters=20000)
        assert np.max(np.abs(result.coefficients - oracle)) <= 1e-3

    def test_matches_enumeration_oracle_per_column(self):
        rng = np.random.default_rng(78)
        x = rng.standard_normal((4, 6))
        result = solve_ssrsc(x, tight_cfg("ssrsc", lam=0.1, s=0.8))
        for j in range(6):
            expected = ssrsc_column_oracle(x, j, 0.1, 0.8)
            np.testing.assert_allclose(result.coefficients[:, j], expected, atol=1e-6)

    def test_converged_implies_final_gap_below_tol(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 10))
        cfg = SolverConfig(model="ssrsc", max_iters=500, tol=0.01)
        result = solve_ssrsc(x, cfg)
        assert result.converged
        assert result.residual_history[-1][0] <= cfg.tol

    def test_objective_dominates_random_feasible(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 7))
        lam, s = 0.05, 0.5
        z = solve_ssrsc(x, tight_cfg("ssrsc", lam=lam, s=s)).coefficients

        def objective(c):
            return np.linalg.norm(x - x @ c) ** 2 + lam * np.linalg.norm(c) ** 2

        solved = objective(z)
        for _ in range(100):
            feasible = s * rng.dirichlet(np.ones(7), size=7).T
            assert solved <= objective(feasible) + 1e-8

    def test_zero_diagonal_variant(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 9))
        cfg = SolverConfig(model="ssrsc", zero_diagonal=True, max_iters=50, tol=1e-8)
        z = solve_ssrsc(x, cfg).coefficients
        np.testing.assert_array_equal(np.diag(z), np.zeros(9))
        assert np.all(z >= 0.0)
        np.testing.assert_allclose(z.sum(axis=0), 0.5, atol=1e-8)

    def test_zero_diagonal_needs_two_points(self):
        with pytest.raises(ConfigError):
            solve_ssrsc(np.array([[1.0]]), SolverConfig(model="ssrsc", zero_diagonal=True))

    def test_model_tag_checked(self):
        with pytest.raises(ConfigError):
            solve_ssrsc(np.eye(2), SolverConfig(model="lsr"))

    def test_overflowing_data_raises_numeric_error(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                solve_ssrsc(np.array([[1e200, -1e200]]), SolverConfig(model="ssrsc"))

    def test_overflowing_gram_inverse_raises_numeric_error(self):
        with pytest.raises(NumericError):
            regularized_gram_inverse(np.full((2, 3), 1e200), 1e-300, mode="direct")


class TestNlsr:
    def test_zero_data_gives_zero(self):
        result = solve_nlsr(np.zeros((3, 4)), tight_cfg("nlsr"))
        np.testing.assert_allclose(result.coefficients, np.zeros((4, 4)), atol=1e-10)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(12)
        z = solve_nlsr(rng.standard_normal((4, 10)), SolverConfig(model="nlsr")).coefficients
        assert np.all(z >= 0.0)

    def test_matches_nnls_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 10))
        z = solve_nlsr(x, tight_cfg("nlsr", lam=0.1)).coefficients
        for j in range(10):
            expected = nnls_column_oracle(x, j, 0.1)
            np.testing.assert_allclose(z[:, j], expected, atol=1e-3)

    def test_model_tag_checked(self):
        with pytest.raises(ConfigError):
            solve_nlsr(np.eye(2), SolverConfig(model="ssrsc"))


class TestSlsr:
    def test_single_point_is_pinned_to_scale(self):
        result = solve_slsr(np.array([[2.0]]), SolverConfig(model="slsr", s=0.3))
        np.testing.assert_allclose(result.coefficients, [[0.3]], atol=1e-12)

    def test_columns_sum_to_scale(self):
        rng = np.random.default_rng(14)
        z = solve_slsr(rng.standard_normal((3, 8)), SolverConfig(model="slsr")).coefficients
        np.testing.assert_allclose(z.sum(axis=0), 0.5, atol=1e-8)

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((3, 8))
        z = solve_slsr(x, tight_cfg("slsr", lam=0.1)).coefficients
        for j in range(8):
            expected = hyperplane_column_oracle(x, j, 0.1, 0.5)
            np.testing.assert_allclose(z[:, j], expected, atol=1e-3)

    def test_model_tag_checked(self):
        with pytest.raises(ConfigError):
            solve_slsr(np.eye(2), SolverConfig(model="nlsr"))


class TestWoodburyEquivalence:
    @pytest.mark.parametrize("model", ["ssrsc", "nlsr", "slsr"])
    def test_solver_outputs_agree(self, model):
        # The thin-SVD C-step against ADMM through the direct and the Woodbury inverse.
        rng = np.random.default_rng(16)
        x = rng.standard_normal((4, 15))
        cfg = SolverConfig(model=model)
        shift = (2 * cfg.lam + cfg.rho) / 2 if model == "nlsr" else cfg.rho / 2
        result = solve(x, cfg)
        for mode in ("direct", "woodbury"):
            inverse = regularized_gram_inverse(x, shift, mode=mode)
            reference, _ = admm_with_inverse(
                x, inverse, model, cfg.lam, cfg.s, cfg.rho, result.iterations_used
            )
            assert frobenius_distance(result.coefficients, reference) <= 1e-6


class TestResidualHistory:
    # D < N, D >= N (V^T is N x N, so the orthogonal split's outside part is
    # all rounding) and N = 257 (two blocks of rows, the second of one row).
    @pytest.mark.parametrize("shape", [(6, 40), (12, 9), (5, 257)], ids=["D < N", "D >= N", "N = 257"])
    @pytest.mark.parametrize("model", ["ssrsc", "nlsr", "slsr"])
    def test_matches_the_dense_norms_of_explicit_admm(self, model, shape):
        x = np.random.default_rng(59).standard_normal(shape)
        cfg = SolverConfig(model=model, max_iters=300, tol=1e-300)
        shift = (2 * cfg.lam + cfg.rho) / 2 if model == "nlsr" else cfg.rho / 2
        result = solve(x, cfg)
        direct, woodbury = (
            np.array(admm_with_inverse(
                x, regularized_gram_inverse(x, shift, mode=mode), model, cfg.lam, cfg.s, cfg.rho, 300
            )[1])
            for mode in ("direct", "woodbury")
        )
        assert len(result.residual_history) == 300
        assert all(type(value) is float for row in result.residual_history for value in row)
        # nlsr and slsr reach the rounding floor within 300 steps, where the
        # reference shows the rounding of its explicit inverse (up to ~1e-11
        # at N = 257): the two inverses' disagreement measures it.
        floor = np.abs(direct - woodbury).max()
        np.testing.assert_allclose(result.residual_history, direct, rtol=1e-9, atol=1e-13 + 2 * floor)


class TestBoundaryProperty:
    def test_negative_hyperplane_optimum_forces_active_constraint(self):
        # when the sum-to-s optimum leaves the non-negative orthant, the
        # simplex-constrained optimum must touch the boundary (a zero entry)
        rng = np.random.default_rng(18)
        checked = 0
        while checked < 20:
            n = int(rng.integers(3, 8))
            x = rng.standard_normal((int(rng.integers(2, 6)), n))
            lam, s = 0.05, 0.5
            j = int(rng.integers(n))
            hyper = hyperplane_column_oracle(x, j, lam, s)
            if np.min(hyper) >= 0:
                continue
            simplex_opt = ssrsc_column_oracle(x, j, lam, s)
            assert np.min(simplex_opt) <= 1e-6
            checked += 1


class TestDispatch:
    def test_lsr_row_has_empty_history(self):
        result = solve(np.eye(3), SolverConfig(model="lsr", lam=1.0))
        np.testing.assert_allclose(result.coefficients, 0.5 * np.eye(3), atol=1e-12)
        assert result.residual_history == []
        assert result.iterations_used == 0
        assert result.converged

    @pytest.mark.parametrize("model", ["ssrsc", "nlsr", "slsr"])
    def test_dispatch_matches_direct_call(self, model):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((3, 6))
        cfg = SolverConfig(model=model)
        direct = {"ssrsc": solve_ssrsc, "nlsr": solve_nlsr, "slsr": solve_slsr}[model](x, cfg)
        via_dispatch = solve(x, cfg)
        np.testing.assert_array_equal(direct.coefficients, via_dispatch.coefficients)


class TestAdmmCore:
    def test_one_table_covers_every_model(self):
        assert set(solvers._ADMM_MODELS) | {"lsr"} == set(MODELS)

    @pytest.mark.parametrize(
        "model, name",
        [
            ("nlsr", "project_nonneg"),
            ("slsr", "project_columns_scaled_affine"),
            ("ssrsc", "project_columns_scaled_simplex"),
        ],
    )
    def test_projection_is_looked_up_at_call_time(self, model, name, monkeypatch):
        original = getattr(solvers, name)
        calls = []

        def swapped(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(solvers, name, swapped)
        solve(np.random.default_rng(56).standard_normal((3, 7)), SolverConfig(model=model, max_iters=3))
        assert calls == [(7, 7)] * 3

    @pytest.mark.parametrize(
        "model, zero_diagonal, name",
        [
            ("nlsr", False, "project_nonneg"),
            ("slsr", False, "project_columns_scaled_affine"),
            ("ssrsc", False, "project_columns_scaled_simplex"),
            ("ssrsc", True, "project_columns_scaled_simplex"),
        ],
    )
    def test_projections_take_one_row_block_at_a_time(self, model, zero_diagonal, name, monkeypatch):
        original = getattr(solvers, name)
        widths = []

        def recorded(*args, **kwargs):
            widths.append(args[0].shape[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(solvers, name, recorded)
        n, block = 600, solvers.PROJECTION_BLOCK
        x = np.random.default_rng(58).standard_normal((10, n))
        solve(x, SolverConfig(model=model, zero_diagonal=zero_diagonal, max_iters=2, tol=1e-12))
        assert max(widths) <= block
        assert widths == [min(block, n - start) for start in range(0, n, block)] * 2

    @pytest.mark.parametrize("model", ["ssrsc", "nlsr", "slsr"])
    def test_z_change_is_the_distance_between_iterates(self, model):
        x = np.random.default_rng(57).standard_normal((4, 12))
        history = solve(x, SolverConfig(model=model, max_iters=6, tol=1e-12)).residual_history
        iterates = [np.zeros((12, 12))] + [
            solve(x, SolverConfig(model=model, max_iters=k, tol=1e-12)).coefficients for k in range(1, 7)
        ]
        assert len(history) == 6
        for k, (_, _, z_change) in enumerate(history):
            assert z_change == frobenius_distance(iterates[k + 1], iterates[k])


def duplicate_columns(x):
    return np.hstack([x, x[:, : x.shape[1] // 2]])


KERNEL_SHAPES = {
    "D >= N": lambda rng: rng.standard_normal((12, 9)),
    "D < N": lambda rng: rng.standard_normal((6, 40)),
    "rank-deficient, D >= N": lambda rng: duplicate_columns(rng.standard_normal((20, 8))),
    "rank-deficient, D < N": lambda rng: duplicate_columns(rng.standard_normal((7, 30))),
}


class TestLowRankKernel:
    # shift 0.25 = rho/2 is the ssrsc/slsr C-step, whose weight rho/(2*shift) is 1.
    @pytest.mark.parametrize(
        "shape, shift",
        [pytest.param(shape, 0.3, id=shape) for shape in sorted(KERNEL_SHAPES)]
        + [pytest.param(shape, 0.25, id=f"{shape}, weight 1") for shape in sorted(KERNEL_SHAPES)],
    )
    def test_c_step_matches_dense_inverse(self, shape, shift):
        rng = np.random.default_rng(52)
        x = KERNEL_SHAPES[shape](rng)
        n = x.shape[1]
        kernel = precompute_kernel(x, shift)
        assert kernel.vt.shape == (min(x.shape), n)
        z = rng.random((n, n))
        delta = rng.standard_normal((n, n))
        weight, y = 0.5 / (2.0 * shift), z + delta / 0.5
        c = weight * y + kernel.vt.T @ _c_step_factor(kernel, kernel.vt @ y, weight)
        expected = regularized_gram_inverse(x, shift) @ (x.T @ x + 0.25 * z + 0.5 * delta)
        np.testing.assert_allclose(c, expected, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("shape", sorted(KERNEL_SHAPES))
    def test_lsr_matches_dense_inverse(self, shape):
        x = KERNEL_SHAPES[shape](np.random.default_rng(53))
        expected = regularized_gram_inverse(x, 0.1, mode="direct") @ (x.T @ x)
        np.testing.assert_allclose(solve_lsr(x, 0.1), expected, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("model", ["ssrsc", "nlsr", "slsr"])
    def test_solvers_never_materialise_n_by_n_factors(self, model, monkeypatch):
        kernels = []

        def recording(*args, **kwargs):
            kernels.append(precompute_kernel(*args, **kwargs))
            return kernels[-1]

        monkeypatch.setattr(solvers, "precompute_kernel", recording)
        x = np.random.default_rng(54).standard_normal((4, 30))
        solve(x, SolverConfig(model=model, max_iters=20))
        (kernel,) = kernels
        r = min(x.shape)
        assert set(vars(kernel)) == {"vt", "ridge"}
        assert kernel.vt.shape == (r, 30) and kernel.ridge.shape == (r,)

    @pytest.mark.parametrize("cores", [2, 8], ids=["2 cores", "8 cores"])
    def test_default_solve_threads_within_five_n_by_n_arrays(self, cores, monkeypatch, started_threads):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        x = generate_synthetic(SyntheticSpec(40, 4, 4, 300, 0.01, seed=1)).data
        n, r = x.shape[1], min(x.shape)
        assert n == 1200
        # Below 4 blocks a solve starts no thread.
        solve(x[:, : 3 * solvers.PROJECTION_BLOCK], SolverConfig())
        assert started_threads == []
        peaks = {}
        configs = [("csr", SolverConfig()), ("csr", SolverConfig(zero_diagonal=True))]
        configs += [("dense", SolverConfig()), ("dense", SolverConfig(model="nlsr"))]
        for route, cfg in configs:
            started_threads.clear()
            tracemalloc.start()
            try:
                with monkeypatch.context() as patch:
                    if route == "dense":  # nlsr's route whatever the threshold
                        patch.setattr(spectral, "SPARSE_EIGEN_MIN_N", n + 1)
                    solve(x, cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # Two scratch blocks per thread within one N x N array allow
            # n // 512 = 2 threads, whatever the cores.
            assert 1 <= len(started_threads) <= 2, started_threads
            # Z^T, S^T and a few 256-row blocks; the dense loop held C, Z, U
            # and two more N x N arrays, and half of one more adds 5.8 MB.
            assert peak <= (3.5 * n * n + 8 * r * n) * 8, cfg
            peaks[route, cfg.model, cfg.zero_diagonal] = peak
        # nlsr's a*Z^T + (a-1)*S^T and Z_new - Z^T live in the block scratch;
        # as fresh blocks they took nlsr 0.08 N^2 doubles above ssrsc.
        assert peaks["dense", "nlsr", False] <= peaks["dense", "ssrsc", False]
        # The CSR loop's Z^T and S^T hold the iterates' nonzeros (11% of the
        # entries after one iteration, 2.5% after five); it peaked at
        # 1.85-1.93 N^2 doubles, most of them the two threads' scratch.
        for zero_diagonal in (False, True):
            assert peaks["csr", "ssrsc", zero_diagonal] <= (2.0 * n * n + 8 * r * n) * 8

    @pytest.mark.parametrize(
        "model, zero_diagonal", [("ssrsc", False), ("nlsr", False), ("slsr", False), ("ssrsc", True)]
    )
    @pytest.mark.parametrize("where", ["column", "diagonal"])
    def test_non_finite_c_step_raises_divergence_error(self, model, zero_diagonal, where, monkeypatch):
        # An infinite C-step output shows in the Z-step input, scale * (C - U).
        lam_on_c_step, project = solvers._ADMM_MODELS[model]

        def overflowing(v, cfg, start, scratch):
            if where == "column":
                v[:, 2] = np.inf
            else:  # the entry the zero-diagonal projection leaves out
                v[2, 2] = np.inf
            return project(v, cfg, start, scratch)

        monkeypatch.setitem(solvers._ADMM_MODELS, model, (lam_on_c_step, overflowing))
        x = np.random.default_rng(58).standard_normal((4, 10))
        cfg = SolverConfig(model=model, zero_diagonal=zero_diagonal, max_iters=1)
        with pytest.raises(DivergenceError):
            solve(x, cfg)

    @pytest.mark.parametrize("model", ["ssrsc", "nlsr", "slsr", "lsr"])
    def test_huge_data_raises_numeric_error(self, model):
        data = generate_synthetic(SyntheticSpec(30, 4, 3, 50, 0.05, seed=1)).data * 1e200
        with pytest.raises(NumericError):
            solve(data, SolverConfig(model=model))


def assert_same_coefficients(a, b):
    """Equal bits: the same CSR structure and values for the CSR loop's Z, else equal arrays."""
    assert scipy.sparse.issparse(a) == scipy.sparse.issparse(b)
    if scipy.sparse.issparse(a):
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(a, part), getattr(b, part))
    else:
        np.testing.assert_array_equal(a, b)


class TestBlockThreads:
    """Row blocks spread over helper threads give the serial loop's bits and leave no thread behind."""

    @pytest.fixture(scope="class")
    def points(self):
        x = generate_synthetic(SyntheticSpec(40, 4, 4, 256, 0.01, seed=2)).data
        assert x.shape[1] == 4 * solvers.PROJECTION_BLOCK
        return x

    @pytest.fixture
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.mark.parametrize(
        "model, zero_diagonal", [("ssrsc", False), ("ssrsc", True), ("nlsr", False), ("slsr", False)]
    )
    def test_threaded_solve_equals_serial_solve(
        self, points, model, zero_diagonal, two_cores, monkeypatch, started_threads
    ):
        cfg = SolverConfig(model=model, zero_diagonal=zero_diagonal, max_iters=8, tol=1e-12)
        before = threading.active_count()
        threaded = solve(points, cfg)
        helpers = len(started_threads)
        assert 1 <= helpers <= 2
        assert threading.active_count() == before
        monkeypatch.setattr(solvers, "_block_threads", lambda n: 1)
        serial = solve(points, cfg)
        assert len(started_threads) == helpers
        assert_same_coefficients(threaded.coefficients, serial.coefficients)
        assert np.array_equal(threaded.residual_history, serial.residual_history)

    def test_more_threads_than_cores_with_short_switches_keep_the_bits(self, points, monkeypatch):
        cfg = SolverConfig(max_iters=8, tol=1e-12)
        monkeypatch.setattr(solvers, "_block_threads", lambda n: 1)
        serial = solve(points, cfg)
        monkeypatch.setattr(solvers, "_block_threads", lambda n: 4)  # one thread per block
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = solve(points, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert_same_coefficients(stressed.coefficients, serial.coefficients)
        assert np.array_equal(stressed.residual_history, serial.residual_history)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_on_a_helper_raises_divergence_error(self, points, bad, two_cores, monkeypatch):
        lam_on_c_step, project = solvers._ADMM_MODELS["ssrsc"]
        helpers = []

        def overflowing(v, cfg, start, scratch, *top_m):
            if start == 2 * solvers.PROJECTION_BLOCK:
                helpers.append(threading.current_thread() is not threading.main_thread())
                v[5, 7] = bad
            return project(v, cfg, start, scratch, *top_m)

        monkeypatch.setitem(solvers._ADMM_MODELS, "ssrsc", (lam_on_c_step, overflowing))
        before = threading.active_count()
        with pytest.raises(DivergenceError):
            solve(points, SolverConfig(max_iters=3))
        assert helpers == [True]
        assert threading.active_count() == before


class TestCsrRoute:
    """From SPARSE_EIGEN_MIN_N points on, ssrsc keeps Z^T and S^T as CSR row blocks."""

    @staticmethod
    def dense_route(monkeypatch, x, cfg):
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "SPARSE_EIGEN_MIN_N", x.shape[1] + 1)
            return solve(x, cfg)

    def test_the_threshold_selects_the_route(self):
        x = np.random.default_rng(62).standard_normal((6, spectral.SPARSE_EIGEN_MIN_N))
        assert isinstance(solve(x[:, :-1], SolverConfig(max_iters=1)).coefficients, np.ndarray)
        z = solve(x, SolverConfig(max_iters=1)).coefficients
        assert isinstance(z, scipy.sparse.csc_array)
        assert z.has_canonical_format
        for model in ("nlsr", "slsr"):
            assert isinstance(solve(x, SolverConfig(model=model, max_iters=1)).coefficients, np.ndarray)

    @pytest.mark.parametrize("zero_diagonal", [False, True], ids=["ssrsc", "zero-diagonal"])
    @pytest.mark.parametrize("per_subspace", [256, 300], ids=["N=1024", "N=1200"])
    def test_matches_the_dense_route_to_tolerance(self, per_subspace, zero_diagonal, monkeypatch):
        # lam 1 and rho 10 reach tol 1e-2 in 70-82 iterations here.
        x = generate_synthetic(SyntheticSpec(40, 4, 4, per_subspace, 0.01, seed=2)).data
        cfg = SolverConfig(zero_diagonal=zero_diagonal, lam=1.0, rho=10.0, max_iters=400, tol=1e-2)
        sparse = solve(x, cfg)
        dense = self.dense_route(monkeypatch, x, cfg)
        assert scipy.sparse.issparse(sparse.coefficients) and isinstance(dense.coefficients, np.ndarray)
        assert sparse.converged and dense.converged
        assert sparse.iterations_used == dense.iterations_used
        assert np.abs(sparse.coefficients.toarray() - dense.coefficients).max() <= 1e-12
        np.testing.assert_allclose(sparse.residual_history, dense.residual_history, rtol=1e-9, atol=0)

    def test_full_support_stays_within_the_memory_bound(self, monkeypatch):
        # Every point the same: every entry of Z is nonzero, so the CSR loop
        # keeps its row blocks dense, at 8 bytes an entry against CSR's 12.
        n = 4 * solvers.PROJECTION_BLOCK
        x = np.tile(np.random.default_rng(63).standard_normal((5, 1)), (1, n))
        r = min(x.shape)
        monkeypatch.setattr(solvers, "_block_threads", lambda n: 1)
        tracemalloc.start()
        try:
            sparse = solve(x, SolverConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sparse.coefficients.nnz == n * n
        assert peak <= (3.5 * n * n + 8 * r * n) * 8
        dense = self.dense_route(monkeypatch, x, SolverConfig())
        assert np.abs(sparse.coefficients.toarray() - dense.coefficients).max() <= 1e-12
        np.testing.assert_allclose(sparse.residual_history, dense.residual_history, rtol=1e-9, atol=1e-12)


class TestZeroDiagonalStep:
    def test_projects_each_column_without_its_diagonal_entry(self):
        rng = np.random.default_rng(55)
        n = 300
        v = rng.standard_normal((n, n)) * 0.1
        out = _project_off_diagonal(v, 0.5)
        np.testing.assert_array_equal(np.diag(out), np.zeros(n))
        for j in range(n):
            off = np.delete(v[:, j], j)[:, None]
            expected = _project_columns_simplex(off, 0.5)[:, 0]
            np.testing.assert_allclose(np.delete(out[:, j], j), expected, rtol=0, atol=1e-15)
        # Bit for bit against the vector projection, for n across TOP_M. In
        # the constant columns near 2**52 a diagonal written only s + 1 below
        # the minimum would enter the support through rounding.
        for n in (2, 32, 33, 300):
            inputs = [rng.standard_normal((n, n)) * scale for scale in (1e-300, 1.0, 1e300)]
            inputs += [np.full((n, n), 2.0**52 + 4), np.full((n, n), -(2.0**52 + 12))]
            for v0 in inputs:
                out = _project_off_diagonal(v0.copy(), 0.5)
                np.testing.assert_array_equal(np.diag(out), np.zeros(n))
                for j in range(n):
                    expected = project_scaled_simplex(np.delete(v0[:, j], j), 0.5)
                    np.testing.assert_array_equal(np.delete(out[:, j], j), expected)

    def test_a_block_of_columns_leaves_out_its_own_diagonal_entries(self):
        # The ADMM loop passes column blocks of Z with their first column's index.
        v = np.random.default_rng(60).standard_normal((300, 300))
        whole = _project_off_diagonal(v.copy(), 0.5)
        for start in (0, 256):
            block = np.asfortranarray(v[:, start : start + 256])
            np.testing.assert_array_equal(_project_off_diagonal(block, 0.5, start), whole[:, start : start + 256])
        x = np.random.default_rng(61).standard_normal((5, 300))
        z = solve(x, SolverConfig(zero_diagonal=True, max_iters=3)).coefficients
        np.testing.assert_array_equal(np.diag(z), np.zeros(300))

    def test_fixture_solve_reaches_the_zero_diagonal_optimum(self):
        x = generate_synthetic(SyntheticSpec(30, 4, 3, 50, 0.05, seed=1)).data
        cfg = SolverConfig(model="ssrsc", zero_diagonal=True, max_iters=5000, tol=0.01)
        result = solve(x, cfg)
        assert result.converged
        z = result.coefficients
        gram = x.T @ x
        gradient = 2.0 * (gram @ z - gram) + 2.0 * cfg.lam * z
        objective = np.linalg.norm(x - x @ z) ** 2 + cfg.lam * np.linalg.norm(z) ** 2
        # Frank-Wolfe gap over the feasible set {z_j on the simplex, z_jj = 0}
        off_diagonal = gradient.copy()
        np.fill_diagonal(off_diagonal, np.inf)
        gap = np.sum(gradient * z) - cfg.s * off_diagonal.min(axis=0).sum()
        assert gap <= 1e-3 * objective
