import os
import sys
import threading
import tracemalloc
import warnings

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
    hyperplane_certificate,
    hyperplane_column_oracle,
    nnls_column_oracle,
    nonneg_certificate,
    pgd_ssrsc_oracle,
    qp_simplex_oracle,
    simplex_certificate,
    ssrsc_column_oracle,
    zero_diagonal_simplex_certificate,
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


@pytest.fixture
def plain_admm(monkeypatch):
    """ADMM without the certified jump: every model's jump entry swapped out."""
    for model, entry in solvers._ADMM_MODELS.items():
        monkeypatch.setitem(solvers._ADMM_MODELS, model, entry._replace(jump=None))


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
        # Converged: the last row is within tol, or a certified jump returned the optimum.
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 10))
        cfg = SolverConfig(model="ssrsc", max_iters=500, tol=0.01)
        result = solve_ssrsc(x, cfg)
        assert result.converged
        history = result.residual_history
        assert (history and max(history[-1]) <= cfg.tol) or simplex_certificate(
            x, result.coefficients, cfg.lam, cfg.s
        ) <= 1e-9

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
        result = solve(x, cfg)
        for mode in ("direct", "woodbury"):
            reference, _ = admm_with_inverse(
                x,
                lambda shift: regularized_gram_inverse(x, shift, mode=mode),
                model, cfg.lam, cfg.s, cfg.rho, result.iterations_used,
            )
            assert frobenius_distance(result.coefficients, reference) <= 1e-6


class TestResidualHistory:
    # D < N, D >= N (V^T is N x N, so the orthogonal split's outside part is
    # all rounding) and N = 257 (two blocks of rows, the second of one row).
    @pytest.mark.parametrize("shape", [(6, 40), (12, 9), (5, 257)], ids=["D < N", "D >= N", "N = 257"])
    @pytest.mark.parametrize("model", ["ssrsc", "nlsr", "slsr"])
    def test_matches_the_dense_norms_of_explicit_admm(self, model, shape, plain_admm):
        x = np.random.default_rng(59).standard_normal(shape)
        cfg = SolverConfig(model=model, max_iters=300, tol=1e-300)
        result = solve(x, cfg)
        direct, woodbury = (
            np.array(admm_with_inverse(
                x, lambda shift: regularized_gram_inverse(x, shift, mode=mode), model, cfg.lam, cfg.s, cfg.rho, 300
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


class TestOptimalityAtDefaultTolerance:
    # The acceptance fixture's shape; with residual balancing and
    # over-relaxation the certificates read at most 1.5e-4 (nlsr), 7.6e-5
    # (slsr), 2.9e-5 (ssrsc) and 3.8e-4 (zero-diagonal ssrsc) on seeds 0-4.
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("model", ["nlsr", "slsr", "ssrsc", "zero_diagonal"])
    def test_tol_one_percent_is_near_the_optimum(self, model, seed):
        x = generate_synthetic(SyntheticSpec(30, 4, 3, 50, 0.05, seed)).data
        zero_diagonal = model == "zero_diagonal"
        cfg = SolverConfig(
            model="ssrsc" if zero_diagonal else model, zero_diagonal=zero_diagonal, tol=0.01, max_iters=5000
        )
        result = solve(x, cfg)
        assert result.converged
        z = result.coefficients
        if zero_diagonal:
            assert np.all(np.diag(z) == 0)
        certificate = {
            "nlsr": lambda: nonneg_certificate(x, z, cfg.lam),
            "slsr": lambda: hyperplane_certificate(x, z, cfg.lam, cfg.s),
            "ssrsc": lambda: simplex_certificate(x, z, cfg.lam, cfg.s),
            "zero_diagonal": lambda: zero_diagonal_simplex_certificate(x, z, cfg.lam, cfg.s),
        }[model]()
        assert certificate <= 1e-3


class TestResidualBalancing:
    def test_the_rule(self):
        balanced = solvers._balanced_rho
        assert balanced(0.5, 2.0, 10.1, 1.0) == 1.0
        assert balanced(1.5, 2.0, 10.1, 1.0) == 2.0  # capped
        assert balanced(2.0, 2.0, 10.1, 1.0) == 2.0
        assert balanced(0.5, 2.0, 1.0, 10.1) == 0.25
        assert balanced(0.5, 2.0, 10.0, 1.0) == balanced(0.5, 2.0, 1.0, 10.0) == 0.5

    @pytest.mark.parametrize("model, n", [("ssrsc", 40), ("ssrsc", 400), ("nlsr", 40), ("slsr", 40)])
    def test_five_iteration_solves_never_balance(self, model, n, monkeypatch, request):
        calls = []
        balanced = solvers._balanced_rho
        monkeypatch.setattr(solvers, "_balanced_rho", lambda *args: calls.append(args) or balanced(*args))
        x = generate_synthetic(SyntheticSpec(40, 4, 4, n // 4, 0.01, seed=1)).data
        for cfg in (SolverConfig(model=model), SolverConfig(model=model, tol=1e-300)):
            assert solve(x, cfg).iterations_used == 5
        assert calls == []
        # One more plain iteration balances once, between the fifth and the
        # sixth (a certified jump after the fifth would end the solve there).
        request.getfixturevalue("plain_admm")
        assert solve(x, SolverConfig(model=model, max_iters=6, tol=1e-300)).iterations_used == 6
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "model, budget",
        [("ssrsc", 120), ("zero_diagonal", 75), ("nlsr", 35), ("slsr", 17)],
        ids=["ssrsc", "zero-diagonal", "nlsr", "slsr"],
    )
    def test_to_tolerance_takes_fewer_iterations(self, model, budget, plain_admm):
        # At the fixed rho 0.5 the ssrsc and zero-diagonal solves took 577 and
        # 307 iterations; balanced but not relaxed, these took 167, 94, 41 and 20.
        # Without the jump, which ends the ssrsc and slsr solves before iteration 1.
        zero_diagonal = model == "zero_diagonal"
        spec = SyntheticSpec(30, 4, 3, 50, 0.05, 1) if zero_diagonal else SyntheticSpec(40, 4, 4, 100, 0.01, 1)
        x = generate_synthetic(spec).data
        cfg = SolverConfig(
            model="ssrsc" if zero_diagonal else model, zero_diagonal=zero_diagonal, tol=0.01, max_iters=5000
        )
        result = solve(x, cfg)
        assert result.converged and result.iterations_used <= budget


class TestRelaxation:
    @pytest.mark.parametrize("model, n", [("ssrsc", 40), ("ssrsc", 400), ("nlsr", 40), ("slsr", 40)])
    def test_five_iteration_solves_are_unrelaxed(self, model, n, monkeypatch, plain_admm):
        x = generate_synthetic(SyntheticSpec(40, 4, 4, n // 4, 0.01, seed=1)).data
        configs = [SolverConfig(model=model, max_iters=k, tol=1e-300) for k in (5, 6)]
        relaxed = [solve(x, cfg) for cfg in configs]
        monkeypatch.setattr(solvers, "RELAXATION", 1.0)
        plain = [solve(x, cfg) for cfg in configs]
        assert_same_coefficients(relaxed[0].coefficients, plain[0].coefficients)
        assert relaxed[0].residual_history == plain[0].residual_history
        # The sixth iteration is the first relaxed one.
        assert relaxed[1].residual_history[:5] == plain[1].residual_history[:5]
        assert relaxed[1].residual_history[5] != plain[1].residual_history[5]
        assert not np.array_equal(relaxed[1].coefficients, plain[1].coefficients)

    @pytest.mark.parametrize(
        "model, shape",
        [("ssrsc", (6, 40)), ("nlsr", (6, 40)), ("slsr", (6, 40)), ("ssrsc", (5, 257))],
        ids=["ssrsc", "nlsr", "slsr", "ssrsc sparse N=257"],
    )
    def test_each_iterate_is_a_prefix_of_a_longer_solve(self, model, shape, plain_admm):
        # max_iters = k stops at the k-th iterate of any longer solve, which
        # the explicit-inverse ADMM, relaxed from its sixth step, reproduces.
        x = np.random.default_rng(65).standard_normal(shape)
        n = shape[1]
        assert solvers._sparse_route(model, n) == (n == 257)
        cfg = SolverConfig(model=model, max_iters=8, tol=1e-300)
        long = solve(x, cfg).residual_history
        previous = np.zeros((n, n))
        for k in range(1, 9):
            result = solve(x, SolverConfig(model=model, max_iters=k, tol=1e-300))
            z = result.coefficients
            assert result.residual_history == long[:k]
            np.testing.assert_allclose(long[k - 1][2], frobenius_distance(z, previous), rtol=1e-12)
            reference, _ = admm_with_inverse(
                x, lambda shift: regularized_gram_inverse(x, shift, mode="direct"), model, cfg.lam, cfg.s, cfg.rho, k
            )
            assert np.abs(z - reference).max() <= 1e-9
            previous = z


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
    def test_z_change_is_the_distance_between_iterates(self, model, plain_admm):
        x = np.random.default_rng(57).standard_normal((4, 12))
        history = solve(x, SolverConfig(model=model, max_iters=6, tol=1e-12)).residual_history
        iterates = [np.zeros((12, 12))] + [
            solve(x, SolverConfig(model=model, max_iters=k, tol=1e-12)).coefficients for k in range(1, 7)
        ]
        assert len(history) == 6
        for k, (_, _, z_change) in enumerate(history):
            assert z_change == frobenius_distance(iterates[k + 1], iterates[k])

    @pytest.mark.parametrize("zero_diagonal", [False, True], ids=["ssrsc", "zero-diagonal"])
    def test_z_change_is_the_distance_between_iterates_on_the_sparse_step(self, zero_diagonal):
        # Three row blocks: the norms are summed over the blocks' entries.
        n = 600
        assert solvers._sparse_route("ssrsc", n)
        x = np.random.default_rng(57).standard_normal((10, n))
        cfg = SolverConfig(zero_diagonal=zero_diagonal, max_iters=6, tol=1e-12)
        history = solve(x, cfg).residual_history
        iterates = [np.zeros((n, n))] + [
            solve(x, SolverConfig(zero_diagonal=zero_diagonal, max_iters=k, tol=1e-12)).coefficients
            for k in range(1, 7)
        ]
        assert len(history) == 6
        for k, (_, _, z_change) in enumerate(history):
            np.testing.assert_allclose(z_change, frobenius_distance(iterates[k + 1], iterates[k]), rtol=1e-12)


def duplicate_columns(x):
    return np.hstack([x, x[:, : x.shape[1] // 2]])


KERNEL_SHAPES = {
    "D >= N": lambda rng: rng.standard_normal((12, 9)),
    "D < N": lambda rng: rng.standard_normal((6, 40)),
    "rank-deficient, D >= N": lambda rng: duplicate_columns(rng.standard_normal((20, 8))),
    "rank-deficient, D < N": lambda rng: duplicate_columns(rng.standard_normal((7, 30))),
}


class TestLowRankKernel:
    # The C-step's shift is rho/2: shift 0.3 takes rho 0.6 and shift 0.25 the default rho 0.5.
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
        rho = 2.0 * shift
        y = z + delta / rho
        c = y + kernel.vt.T @ _c_step_factor(kernel, kernel.vt @ y)
        expected = regularized_gram_inverse(x, shift) @ (x.T @ x + shift * z + 0.5 * delta)
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
        svd, svds = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: svds.append(1) or svd(*args, **kwargs))
        x = np.random.default_rng(54).standard_normal((4, 30))
        solve(x, SolverConfig(model=model, max_iters=20))
        (kernel,) = kernels
        r = min(x.shape)
        # A change of rho takes the factors of the new shift from the squared
        # singular values, with no second SVD.
        assert len(svds) == 1
        assert set(vars(kernel)) == {"vt", "ridge", "squared"}
        assert kernel.vt.shape == (r, 30) and kernel.ridge.shape == kernel.squared.shape == (r,)

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
        # slsr to tol 0.01 lands its certified jump after iteration 5 and
        # writes Z*'s rows into Z^T's own blocks: 3.30 N^2 doubles on two
        # threads, where fresh copies of the blocks peaked at 4.26.
        configs += [("dense", SolverConfig(model="slsr", tol=0.01, max_iters=5000))]
        for route, cfg in configs:
            started_threads.clear()
            tracemalloc.start()
            try:
                with monkeypatch.context() as patch:
                    if route == "dense":  # nlsr's route whatever the size
                        patch.setattr(solvers, "_sparse_route", lambda model, n: False)
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
        # nlsr's block step is ssrsc's without the projection's scratch.
        assert peaks["dense", "nlsr", False] <= peaks["dense", "ssrsc", False]
        # The sparse loop's Z^T and S^T hold the iterates' nonzeros (11% of the
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
        entry = solvers._ADMM_MODELS[model]

        def overflowing(v, cfg, start, scratch):
            if where == "column":
                v[:, 2] = np.inf
            else:  # the entry the zero-diagonal projection leaves out
                v[2, 2] = np.inf
            return entry.project(v, cfg, start, scratch)

        monkeypatch.setitem(solvers._ADMM_MODELS, model, entry._replace(project=overflowing))
        x = np.random.default_rng(58).standard_normal((4, 10))
        cfg = SolverConfig(model=model, zero_diagonal=zero_diagonal, max_iters=1)
        with pytest.raises(DivergenceError):
            solve(x, cfg)

    @pytest.mark.parametrize("n", [100, 300], ids=["N=100", "N=300"])
    @pytest.mark.parametrize("model", ["ssrsc", "slsr"])
    def test_overflowing_scale_raises_divergence_error_without_a_warning(self, model, n):
        x = np.random.default_rng(64).standard_normal((10, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                solve(x, SolverConfig(model=model, s=1e200))

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
        entry = solvers._ADMM_MODELS["ssrsc"]
        helpers = []

        def overflowing(v, cfg, start, scratch, *top_m):
            if start == 2 * solvers.PROJECTION_BLOCK:
                helpers.append(threading.current_thread() is not threading.main_thread())
                v[5, 7] = bad
            return entry.project(v, cfg, start, scratch, *top_m)

        monkeypatch.setitem(solvers._ADMM_MODELS, "ssrsc", entry._replace(project=overflowing))
        before = threading.active_count()
        with pytest.raises(DivergenceError):
            solve(points, SolverConfig(max_iters=3))
        assert helpers == [True]
        assert threading.active_count() == before


class TestCsrRoute:
    """From two row blocks on, ssrsc keeps Z^T and S^T as row blocks of entries; from SPARSE_EIGEN_MIN_N points on, Z is CSC."""

    @staticmethod
    def dense_route(monkeypatch, x, cfg):
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_sparse_route", lambda model, n: False)
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
    def test_matches_the_dense_route_to_tolerance(self, per_subspace, zero_diagonal, monkeypatch, plain_admm):
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

    @pytest.mark.parametrize("threads", [1, 2], ids=["one-helper", "two-helpers"])
    def test_full_support_stays_within_the_memory_bound(self, threads, monkeypatch):
        # Every point the same: every entry of Z is nonzero, so the sparse
        # loop keeps its row blocks dense, at 8 bytes an entry against 12.
        # They are written in place: fresh copies of Z_new and S_new took
        # the loop to 4.1 n^2 doubles on two threads.
        n = 4 * solvers.PROJECTION_BLOCK
        x = np.tile(np.random.default_rng(63).standard_normal((5, 1)), (1, n))
        r = min(x.shape)
        monkeypatch.setattr(solvers, "_block_threads", lambda n: threads)
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

    def test_full_support_rescales_in_place(self, monkeypatch, plain_admm):
        # rho doubles after iterations 5 and 6 and then stays at its cap: the
        # dense blocks of S^T are rescaled in place, within the same bound.
        n = 4 * solvers.PROJECTION_BLOCK
        x = np.tile(np.random.default_rng(63).standard_normal((5, 1)), (1, n))
        r = min(x.shape)
        cfg = SolverConfig(max_iters=8, tol=1e-300)
        rhos = []
        balanced = solvers._balanced_rho
        monkeypatch.setattr(solvers, "_balanced_rho", lambda *args: rhos.append(balanced(*args)) or rhos[-1])
        monkeypatch.setattr(solvers, "_block_threads", lambda n: 2)
        tracemalloc.start()
        try:
            sparse = solve(x, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rhos == [1.0, 2.0, 2.0]
        assert sparse.coefficients.nnz == n * n
        assert peak <= (3.5 * n * n + 8 * r * n) * 8
        dense = self.dense_route(monkeypatch, x, cfg)
        assert np.abs(sparse.coefficients.toarray() - dense.coefficients).max() <= 1e-12
        np.testing.assert_allclose(sparse.residual_history, dense.residual_history, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("zero_diagonal", [False, True], ids=["ssrsc", "zero-diagonal"])
    def test_two_blocks_take_the_sparse_step_and_return_an_array(self, zero_diagonal, monkeypatch, plain_admm):
        x = generate_synthetic(SyntheticSpec(40, 4, 4, 100, 0.01, seed=3)).data
        n = x.shape[1]
        assert not solvers._sparse_route("ssrsc", solvers.PROJECTION_BLOCK)
        assert solvers._sparse_route("ssrsc", n) and n < spectral.SPARSE_EIGEN_MIN_N
        assert not solvers._sparse_route("nlsr", n) and not solvers._sparse_route("slsr", n)
        cfg = SolverConfig(zero_diagonal=zero_diagonal, max_iters=2000, tol=1e-2)
        sparse = solve(x, cfg)
        dense = self.dense_route(monkeypatch, x, cfg)
        assert isinstance(sparse.coefficients, np.ndarray)
        assert sparse.converged and sparse.iterations_used == dense.iterations_used
        assert np.abs(sparse.coefficients - dense.coefficients).max() <= 1e-12
        np.testing.assert_allclose(sparse.residual_history, dense.residual_history, rtol=1e-9, atol=0)


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


@pytest.fixture
def jump_calls(monkeypatch):
    """Each jump attempt's result (certified or not), for ssrsc and slsr."""
    calls = []
    for model in ("ssrsc", "slsr"):
        entry = solvers._ADMM_MODELS[model]

        def recording(*args, entry=entry):
            write = entry.jump(*args)
            calls.append(write is not None)
            return write

        monkeypatch.setitem(solvers._ADMM_MODELS, model, entry._replace(jump=recording))
    return calls


def dense(z):
    return z.toarray() if scipy.sparse.issparse(z) else np.asarray(z)


def plain_solve(monkeypatch, x, cfg):
    """solve(x, cfg) with every model's jump entry swapped out for the call."""
    with monkeypatch.context() as patch:
        for model, entry in solvers._ADMM_MODELS.items():
            patch.setitem(solvers._ADMM_MODELS, model, entry._replace(jump=None))
        return solve(x, cfg)


def before_the_first_iteration(zt_blocks):
    """Whether the loop's row blocks of Z^T are still the zero start: no iteration has run."""
    return not any(np.any(b) if isinstance(b, np.ndarray) else b[0].size for b in zt_blocks)


def solve_without_the_first_attempt(monkeypatch, x, cfg):
    """solve(x, cfg) with the jump tried before the first iteration failing, as if not certified.

    The later attempts run the table's jump entries (jump_calls records
    them, the first not).
    """
    with monkeypatch.context() as patch:
        for model, entry in solvers._ADMM_MODELS.items():
            if entry.jump is not None:
                failing = lambda *args, jump=entry.jump: None if before_the_first_iteration(args[2]) else jump(*args)
                patch.setitem(solvers._ADMM_MODELS, model, entry._replace(jump=failing))
        return solve(x, cfg)


TOLERANCE_INPUTS = {
    # solve-to-tol's inputs: ssrsc and slsr at N=400 (two row blocks, so ssrsc
    # takes the sparse route) and zero-diagonal ssrsc on the N=150 fixture.
    "ssrsc N=400": (SyntheticSpec(40, 4, 4, 100, 0.01, 1), {}),
    "zero-diagonal N=150": (SyntheticSpec(30, 4, 3, 50, 0.05, 1), {"zero_diagonal": True}),
    "slsr N=400": (SyntheticSpec(40, 4, 4, 100, 0.01, 1), {"model": "slsr"}),
}


def certificate_of(x, z, cfg):
    """The optimality certificate of z for cfg's model: ssrsc's (zero-diagonal) Frank-Wolfe gap or slsr's (f - f*)/f*."""
    if cfg.model == "slsr":
        return hyperplane_certificate(x, z, cfg.lam, cfg.s)
    certify = zero_diagonal_simplex_certificate if cfg.zero_diagonal else simplex_certificate
    return certify(x, z, cfg.lam, cfg.s)


class TestCertifiedJump:
    """Before iteration 1 and after iterations 5, 10, 20, ... ssrsc and slsr try a jump to their exact optimum.

    A solve of at most 5 iterations never tries one; a certified jump returns
    the optimum at once.
    """

    @pytest.mark.parametrize("name", sorted(TOLERANCE_INPUTS))
    def test_to_tolerance_solves_land_on_the_optimum(self, name, jump_calls, monkeypatch):
        spec, settings = TOLERANCE_INPUTS[name]
        x = generate_synthetic(spec).data
        cfg = SolverConfig(**settings, tol=0.01, max_iters=5000)
        assert solvers._sparse_route(cfg.model, x.shape[1]) == (name == "ssrsc N=400")
        result = solve(x, cfg)
        z = dense(result.coefficients)
        # One certified attempt before the first iteration returns Z* at
        # once, with an empty history.
        assert jump_calls == [True]
        assert result.converged and result.iterations_used == 0 and result.residual_history == []
        assert plain_solve(monkeypatch, x, cfg).iterations_used > 5
        assert abs(certificate_of(x, z, cfg)) <= 1e-9
        if cfg.model == "ssrsc":
            assert z.min() >= 0 and np.abs(z.sum(axis=0) - cfg.s).max() <= 1e-12
        if cfg.zero_diagonal:
            assert np.all(np.diag(z) == 0)
        # The jump after iteration 5, from ADMM's supports, lands on the same
        # optimum; slsr's closed form does not read the iterates at all.
        later = solve_without_the_first_attempt(monkeypatch, x, cfg)
        assert jump_calls == [True, True] and later.iterations_used == 5
        if cfg.model == "slsr":
            np.testing.assert_array_equal(dense(later.coefficients), z)
        else:
            assert np.abs(dense(later.coefficients) - z).max() <= 1e-12

    def test_slsr_lands_on_the_closed_form_optimum(self):
        x = np.random.default_rng(66).standard_normal((6, 60))
        result = solve(x, SolverConfig(model="slsr", lam=0.1, s=0.8, tol=1e-8, max_iters=100))
        assert result.converged and result.iterations_used <= 8
        for j in range(60):
            expected = hyperplane_column_oracle(x, j, 0.1, 0.8)
            np.testing.assert_allclose(result.coefficients[:, j], expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("zero_diagonal", [False, True], ids=["ssrsc", "zero-diagonal"])
    def test_block_optimum_matches_the_enumeration_oracle(self, zero_diagonal):
        # From the full support, from each column's largest entry alone and
        # from a random support: the certified optimum is the same.
        rng = np.random.default_rng(67)
        x = rng.standard_normal((4, 10))
        cfg = SolverConfig(lam=0.05, s=0.8, zero_diagonal=zero_diagonal)
        kernel = precompute_kernel(x, 0.25)
        b = np.sqrt(kernel.squared)[:, None] * kernel.vt
        n = x.shape[1]
        gram = x.T @ x + cfg.lam * np.eye(n)
        expected = np.zeros((n, n))
        for j in range(n):
            others = [i for i in range(n) if not (zero_diagonal and i == j)]
            column = qp_simplex_oracle(gram[np.ix_(others, others)], (x.T @ x)[others, j], cfg.s)
            expected[others, j] = column
        guesses = [np.ones((n, n), dtype=bool), np.eye(n, dtype=bool)[::-1], rng.random((n, n)) < 0.3]
        for guess in guesses:
            if zero_diagonal:
                guess = guess & ~np.eye(n, dtype=bool)
            guess[np.arange(n), (np.arange(n) + 1) % n] = True  # every column keeps an entry
            values = guess / guess.sum(axis=1, keepdims=True) * cfg.s  # feasible rows of Z^T
            support = np.flatnonzero(values)
            scratch = np.empty((2, n, n))
            bt = np.vstack([b.T, np.zeros((1, b.shape[0]))])
            found = solvers._simplex_optimum(b, bt, cfg, (support, values.reshape(-1)[support]), 0, scratch)
            assert found is not None
            zt = np.zeros(n * n)
            zt[found[0]] = found[1]
            assert np.all(found[1] > 0)
            np.testing.assert_allclose(zt.reshape(n, n).T, expected, rtol=0, atol=1e-9)

    def test_history_before_the_jump_is_the_plain_solve(self, monkeypatch):
        # Landed before iteration 1, the history is empty; landed after
        # iteration 5, it is the plain solve's first five rows.
        spec, _ = TOLERANCE_INPUTS["ssrsc N=400"]
        x = generate_synthetic(spec).data
        cfg = SolverConfig(tol=0.01, max_iters=5000)
        plain = plain_solve(monkeypatch, x, cfg)
        assert plain.iterations_used > 100
        assert solve(x, cfg).residual_history == []
        jumped = solve_without_the_first_attempt(monkeypatch, x, cfg)
        assert jumped.converged and jumped.iterations_used == 5
        assert jumped.residual_history == plain.residual_history[:5]

    @pytest.mark.parametrize(
        "model, shape",
        [("ssrsc", (6, 40)), ("slsr", (6, 40)), ("ssrsc", (5, 257)), ("slsr", (5, 257))],
        ids=["ssrsc", "slsr", "ssrsc sparse N=257", "slsr N=257"],
    )
    def test_rows_after_the_jump_measure_the_real_changes(self, model, shape, jump_calls, monkeypatch):
        # A landed jump returns Z* at once, so no ADMM row follows it. When
        # the attempt before iteration 1 fails and the one after iteration 5
        # lands, the history is explicit ADMM's five rows, the last of which
        # compares Z_5 with Z_4, and the one change after it, Z_5 -> Z*, is
        # the certified optimum's.
        x = np.random.default_rng(65).standard_normal(shape)
        cfg = SolverConfig(model=model, max_iters=9, tol=1e-300)
        result = solve_without_the_first_attempt(monkeypatch, x, cfg)
        assert jump_calls == [True]
        assert result.converged and result.iterations_used == 5
        _, reference = admm_with_inverse(
            x, lambda shift: regularized_gram_inverse(x, shift, mode="direct"), model, cfg.lam, cfg.s, cfg.rho, 5
        )
        history = np.array(result.residual_history)
        assert history.shape == (5, 3)
        np.testing.assert_allclose(history, reference, rtol=1e-9, atol=1e-13)
        z4, z5 = (dense(solve(x, SolverConfig(model=model, max_iters=k, tol=1e-300)).coefficients) for k in (4, 5))
        np.testing.assert_allclose(history[4, 2], frobenius_distance(z5, z4), rtol=1e-12)
        z = dense(result.coefficients)
        certify = simplex_certificate if model == "ssrsc" else hyperplane_certificate
        assert abs(certify(x, z, cfg.lam, cfg.s)) <= 1e-9 < abs(certify(x, z5, cfg.lam, cfg.s))

    @pytest.mark.parametrize("model, n", [("ssrsc", 40), ("ssrsc", 400), ("slsr", 40), ("nlsr", 40)])
    def test_no_attempt_within_five_iterations(self, model, n, jump_calls):
        x = generate_synthetic(SyntheticSpec(40, 4, 4, n // 4, 0.01, seed=1)).data
        for k in range(1, 6):
            assert solve(x, SolverConfig(model=model, max_iters=k, tol=1e-300)).iterations_used == k
        assert jump_calls == []
        # A budget of 6 tries one before iteration 1, which lands here.
        result = solve(x, SolverConfig(model=model, max_iters=6, tol=1e-300))
        assert jump_calls == ([] if model == "nlsr" else [True])
        assert result.iterations_used == (6 if model == "nlsr" else 0)

    def test_attempts_follow_the_doubling_schedule(self, jump_calls, monkeypatch):
        assert [k for k in range(200) if solvers._attempts_after(k)] == [0, 5, 10, 20, 40, 80, 160]
        # A landed jump ends the solve: none is tried after iterations 5, 10
        # and 20, and after the first failed attempt, none after 10 and 20.
        x = generate_synthetic(SyntheticSpec(40, 4, 4, 10, 0.01, seed=1)).data
        cfg = SolverConfig(max_iters=25, tol=1e-300)
        result = solve(x, cfg)
        assert jump_calls == [True]
        assert result.converged and result.iterations_used == 0
        later = solve_without_the_first_attempt(monkeypatch, x, cfg)
        assert jump_calls == [True, True]
        assert later.converged and later.iterations_used == 5
        assert later.residual_history == plain_solve(monkeypatch, x, cfg).residual_history[:5]

    @pytest.mark.parametrize("model", ["ssrsc", "zero-diagonal", "slsr"])
    def test_a_failed_first_attempt_leaves_plain_admm(self, model, monkeypatch):
        # The tol that plain ADMM meets at iteration 4 ends the solve before
        # the attempt after iteration 5: with the attempt before iteration 1
        # failing, history and Z are the jump-free solve's, bit for bit.
        x = generate_synthetic(SyntheticSpec(30, 4, 3, 50, 0.05, seed=1)).data
        settings = {"model": "slsr"} if model == "slsr" else {"zero_diagonal": model == "zero-diagonal"}
        rows = plain_solve(monkeypatch, x, SolverConfig(**settings, max_iters=4, tol=1e-300)).residual_history
        cfg = SolverConfig(**settings, max_iters=50, tol=max(rows[-1]))
        plain = plain_solve(monkeypatch, x, cfg)
        assert plain.converged and plain.iterations_used <= 4
        failed = solve_without_the_first_attempt(monkeypatch, x, cfg)
        assert failed.converged
        assert failed.residual_history == plain.residual_history
        assert_same_coefficients(failed.coefficients, plain.coefficients)

    def test_failed_certification_leaves_the_iterates_untouched(self, monkeypatch, jump_calls):
        # No round: no block is certified, so every attempt (before iteration
        # 1 and after iterations 5, 10, 20, 40 and 80) fails and the solve is
        # the plain one, bit for bit.
        spec, _ = TOLERANCE_INPUTS["ssrsc N=400"]
        x = generate_synthetic(spec).data
        cfg = SolverConfig(tol=0.01, max_iters=5000)
        monkeypatch.setattr(solvers, "POLISH_ROUNDS", 0)
        failed = solve(x, cfg)
        assert jump_calls == [False] * 6
        plain = plain_solve(monkeypatch, x, cfg)
        assert 80 < plain.iterations_used < 160
        assert failed.residual_history == plain.residual_history
        assert_same_coefficients(failed.coefficients, plain.coefficients)

    def test_one_uncertified_block_cancels_the_jump(self, monkeypatch, jump_calls):
        spec, _ = TOLERANCE_INPUTS["ssrsc N=400"]
        x = generate_synthetic(spec).data
        cfg = SolverConfig(max_iters=12, tol=1e-300)
        optimum = solvers._simplex_optimum
        monkeypatch.setattr(
            solvers, "_simplex_optimum", lambda *args: None if args[4] == solvers.PROJECTION_BLOCK else optimum(*args)
        )
        failed = solve(x, cfg)
        assert jump_calls == [False] * 3  # before iteration 1 and after 5 and 10
        plain = plain_solve(monkeypatch, x, cfg)
        assert failed.residual_history == plain.residual_history
        assert_same_coefficients(failed.coefficients, plain.coefficients)

    def test_a_support_wider_than_the_systems_room_skips_the_attempt(self):
        # N=50 allows systems of sqrt(100) = 10: a support of 11 in D=20
        # takes 11 x 11 systems and is skipped, one of 10 is not; in D=5 the
        # r x r form makes any support fit.
        rng = np.random.default_rng(68)
        cfg = SolverConfig()
        for d, width, fits in [(20, 10, True), (20, 11, False), (5, 50, True)]:
            bt = np.vstack([rng.standard_normal((50, d)), np.zeros((1, d))])
            owner = np.zeros(width, dtype=np.intp)
            solved = solvers._restricted_optima(bt, owner, np.arange(width), np.array([0]), cfg, np.empty(10**4))
            assert (solved is not None) == fits

    def test_identical_points_converge_at_once(self):
        # X^T X is rank one: plain ADMM's dual grows towards ||x||^2 N/rho
        # under the 4 rho cap, which took 4987 iterations to tol 0.01.
        x = np.tile(np.random.default_rng(63).standard_normal((5, 1)), (1, 200))
        result = solve(x, SolverConfig(tol=0.01, max_iters=50))
        assert result.converged and result.iterations_used == 0  # before iteration 1
        np.testing.assert_allclose(result.coefficients, 0.5 / 200, rtol=1e-9)

    @pytest.mark.parametrize("n", [257, 258], ids=["N=257", "N=258"])
    @pytest.mark.parametrize("name", ["gaussian", "zero-diagonal", "identical points"])
    def test_a_short_last_block_lands(self, name, n, jump_calls):
        # The last row block holds 1 or 2 columns: the active set gathers its
        # supports in the task's whole second scratch block, not in the
        # block's few rows, where a support of more than N/r entries did
        # not fit. The Gaussian and identical inputs land from the
        # correlations before iteration 1, the short block's G being its
        # 1 or 2 rows of the scratch.
        rng = np.random.default_rng(1)
        identical = name == "identical points"
        x = np.tile(rng.standard_normal((5, 1)), (1, n)) if identical else rng.standard_normal((40, n))
        cfg = SolverConfig(
            lam=1.0 if name == "gaussian" else 0.01, zero_diagonal=name == "zero-diagonal", tol=0.01, max_iters=300
        )
        result = solve(x, cfg)
        assert result.converged and jump_calls[-1]
        if not cfg.zero_diagonal:
            assert jump_calls == [True] and result.iterations_used == 0
        assert abs(certificate_of(x, result.coefficients, cfg)) <= 1e-9

    @pytest.mark.parametrize("zero_diagonal", [False, True], ids=["ssrsc", "zero-diagonal"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 257, 258])
    def test_the_correlated_start(self, n, zero_diagonal):
        # Each column's start is s/m on its m largest b_i^T b_j (i != j with
        # zero_diagonal), m = START_SUPPORT capped at its N or N - 1
        # candidates: N=1 takes the point itself, N=2 with zero_diagonal the
        # other one. Short last blocks (N=257, 258) index their own rows.
        if zero_diagonal and n < 2:
            return
        x = np.random.default_rng(69).standard_normal((6, n))
        cfg = SolverConfig(zero_diagonal=zero_diagonal, s=0.7)
        kernel = precompute_kernel(x, 0.25)
        b = np.sqrt(kernel.squared)[:, None] * kernel.vt
        gram = b.T @ b
        m = max(1, min(solvers.START_SUPPORT, n - zero_diagonal))
        for first in range(0, n, solvers.PROJECTION_BLOCK):
            rows = slice(first, min(first + solvers.PROJECTION_BLOCK, n))
            count = rows.stop - rows.start
            positions, values = solvers._correlated_start(b, cfg, rows, np.empty((count, n)))
            assert np.all(np.diff(positions) > 0)
            np.testing.assert_array_equal(values, np.full(count * m, cfg.s / m))
            chosen = np.zeros((count, n), dtype=bool)
            chosen.reshape(-1)[positions] = True
            for j in range(count):
                column = first + j
                assert chosen[j].sum() == m and not (zero_diagonal and chosen[j, column])
                outside = [i for i in range(n) if not (chosen[j, i] or (zero_diagonal and i == column))]
                if outside:
                    assert gram[chosen[j], column].min() >= gram[outside, column].max()

    @pytest.mark.parametrize("zero_diagonal", [False, True], ids=["ssrsc", "zero-diagonal"])
    @pytest.mark.parametrize("n", range(1, solvers.START_SUPPORT + 2))
    def test_few_points_solve_to_tolerance(self, n, zero_diagonal):
        # Up to N = START_SUPPORT the start takes every candidate; the
        # system-width bound may skip the attempt, and ADMM and a later jump
        # end the solve.
        if zero_diagonal and n < 2:
            return
        x = np.random.default_rng(n).standard_normal((3, n))
        cfg = SolverConfig(zero_diagonal=zero_diagonal, tol=0.01, max_iters=50)
        result = solve(x, cfg)
        z = result.coefficients
        assert result.converged and z.min() >= 0 and np.abs(z.sum(axis=0) - cfg.s).max() <= 1e-12
        assert abs(certificate_of(x, z, cfg)) <= 1e-9

    def test_one_point_is_a_certified_start(self):
        # m = N - 1 = 0 once raised from np.argpartition.
        result = solve(np.ones((3, 1)), SolverConfig(tol=0.01, max_iters=50))
        assert result.converged and result.iterations_used == 0
        np.testing.assert_array_equal(result.coefficients, [[0.5]])

    @pytest.mark.parametrize("zero_diagonal", [False, True], ids=["ssrsc", "zero-diagonal"])
    def test_overflowing_jump_systems_leave_plain_admm(self, zero_diagonal):
        # At 1e150 the active set's ridge systems overflow and are singular:
        # the attempt is not certified, and ADMM goes on with no warning.
        x = np.random.default_rng(0).standard_normal((5, 40)) * 1e150
        cfg = SolverConfig(zero_diagonal=zero_diagonal, tol=0.01, max_iters=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                z = solve(x, cfg).coefficients
            except (DivergenceError, NumericError):
                return
        assert z.min() >= 0 and np.abs(z.sum(axis=0) - cfg.s).max() <= 1e-12

    @pytest.mark.parametrize("zero_diagonal", [False, True], ids=["ssrsc", "zero-diagonal"])
    def test_sparse_and_dense_routes_land_together(self, zero_diagonal, jump_calls, monkeypatch):
        x = generate_synthetic(SyntheticSpec(40, 4, 4, 100, 0.01, seed=3)).data
        cfg = SolverConfig(zero_diagonal=zero_diagonal, max_iters=2000, tol=1e-2)
        sparse = solve(x, cfg)
        dense_route = TestCsrRoute.dense_route(monkeypatch, x, cfg)
        assert jump_calls == [True, True]
        assert sparse.converged and dense_route.converged
        assert sparse.iterations_used == dense_route.iterations_used == 0
        assert np.abs(sparse.coefficients - dense_route.coefficients).max() <= 1e-12
        # From ADMM's supports after iteration 5, too.
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_sparse_route", lambda model, n: False)
            dense_later = solve_without_the_first_attempt(patch, x, cfg)
        sparse_later = solve_without_the_first_attempt(monkeypatch, x, cfg)
        assert jump_calls == [True] * 4
        assert sparse_later.iterations_used == dense_later.iterations_used == 5
        assert sparse_later.residual_history == plain_solve(monkeypatch, x, cfg).residual_history[:5]
        assert np.abs(sparse_later.coefficients - dense_later.coefficients).max() <= 1e-12
        assert np.abs(sparse_later.coefficients - sparse.coefficients).max() <= 1e-12
        np.testing.assert_allclose(sparse_later.residual_history, dense_later.residual_history, rtol=1e-9, atol=1e-12)
