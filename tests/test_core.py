from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexsc import (
    ConfigError,
    NumericError,
    ShapeError,
    SolverConfig,
    frobenius_distance,
)
from simplexsc.core import ClusteringResult, as_data_matrix, as_square_matrix

from oracles import frobenius_by_loops


class TestFrobeniusDistance:
    def test_identity_is_zero(self):
        m = np.arange(12.0).reshape(3, 4)
        assert frobenius_distance(m, m) == 0.0

    def test_definition_on_small_case(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.zeros((2, 2))
        assert frobenius_distance(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            b = rng.standard_normal((5, 5))
            assert frobenius_distance(a, b) == pytest.approx(
                frobenius_by_loops(a, b), abs=1e-12
            )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            frobenius_distance(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
            assert frobenius_distance(a, b) == pytest.approx(
                frobenius_distance(b, a), abs=1e-10
            )
            assert frobenius_distance(a, c) <= (
                frobenius_distance(a, b) + frobenius_distance(b, c) + 1e-10
            )


class TestConstructors:
    def test_data_matrix_accepts_valid(self):
        x = as_data_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert x.shape == (2, 2) and x.dtype == np.float64

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_data_matrix_rejects_non_finite(self, bad):
        with pytest.raises(NumericError):
            as_data_matrix([[1.0, bad]])

    def test_data_matrix_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            as_data_matrix([1.0, 2.0])
        with pytest.raises(ShapeError):
            as_data_matrix(np.zeros((0, 3)))

    def test_square_matrix_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            as_square_matrix(np.zeros((2, 3)))

    def test_square_matrix_rejects_non_finite(self):
        with pytest.raises(NumericError):
            as_square_matrix([[np.nan, 0.0], [0.0, 1.0]])


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.model == "ssrsc"
        assert cfg.s == 0.5
        assert cfg.rho == 0.5
        assert cfg.max_iters == 5
        assert cfg.tol == 0.01
        assert cfg.lam == 0.01
        assert cfg.zero_diagonal is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model": "spectral"},
            {"lam": 0.0},
            {"lam": -1.0},
            {"s": 0.0},
            {"rho": -0.5},
            {"tol": 0.0},
            {"max_iters": 0},
            {"max_iters": 2.5},
            {"seed": -1},
            {"lam": np.nan},
            {"seed": 1.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)

    def test_fields(self):
        assert [f.name for f in fields(SolverConfig)] == [
            "model", "lam", "s", "rho", "max_iters", "tol", "zero_diagonal", "seed",
        ]

    @pytest.mark.parametrize("model", ["lsr", "nlsr", "slsr"])
    def test_zero_diagonal_is_ssrsc_only(self, model):
        with pytest.raises(ConfigError, match="zero_diagonal"):
            SolverConfig(model=model, zero_diagonal=True)
        assert SolverConfig(model="ssrsc", zero_diagonal=True).zero_diagonal

    @given(
        lam=st.floats(1e-6, 1e3),
        s=st.floats(1e-6, 10.0),
        rho=st.floats(1e-6, 10.0),
        iters=st.integers(1, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_accepts_any_positive_hyperparameters(self, lam, s, rho, iters):
        cfg = SolverConfig(lam=lam, s=s, rho=rho, max_iters=iters)
        assert cfg.lam == lam


class TestClusteringResult:
    def test_iterations_used_is_the_history_length(self):
        result = ClusteringResult(
            labels=np.zeros(3, dtype=int),
            residual_history=[(1.0, 1.0, 1.0)] * 2,
            wall_time_seconds=0.0,
            converged=False,
        )
        assert result.iterations_used == len(result.residual_history) == 2

    def test_error_rate_range(self):
        with pytest.raises(ConfigError):
            ClusteringResult(
                labels=np.zeros(3, dtype=int),
                residual_history=[],
                wall_time_seconds=0.0,
                converged=True,
                error_rate=1.5,
            )
