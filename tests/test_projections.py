import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from simplexsc import (
    ConfigError,
    NumericError,
    project_nonneg,
    project_scaled_affine,
    project_scaled_simplex,
)
from simplexsc.projections import (
    PROJECTION_BLOCK,
    TOP_M,
    TOP_M_GROWTH,
    project_columns_scaled_affine,
    project_columns_scaled_simplex,
)

from oracles import simplex_projection_oracle

finite_vectors = arrays(
    np.float64,
    st.integers(1, 8),
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


class TestScaledSimplex:
    def test_feasible_input_is_fixed_point(self):
        out = project_scaled_simplex(np.array([0.2, 0.3]), 0.5)
        np.testing.assert_allclose(out, [0.2, 0.3], atol=1e-15)

    def test_symmetric_input_gives_uniform(self):
        out = project_scaled_simplex(np.zeros(3), 1.0)
        np.testing.assert_allclose(out, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_clipping_case(self):
        # KKT enumeration gives the vertex [1, 0] for u=[2, 0], s=1
        out = project_scaled_simplex(np.array([2.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            simplex_projection_oracle(np.array([2.0, 0.0]), 1.0), [1.0, 0.0], atol=1e-15
        )

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            u = rng.uniform(-3, 3, n)
            s = float(rng.uniform(0.05, 3.0))
            expected = simplex_projection_oracle(u, s)
            np.testing.assert_allclose(project_scaled_simplex(u, s), expected, atol=1e-8)

    def test_output_nonnegative_and_sums_to_s(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            u = rng.standard_normal(n) * rng.uniform(0.1, 10)
            s = float(rng.uniform(0.05, 4.0))
            z = project_scaled_simplex(u, s)
            assert np.all(z >= 0.0)
            assert abs(z.sum() - s) <= 1e-10 * n

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            z = project_scaled_simplex(rng.standard_normal(6), 0.5)
            np.testing.assert_allclose(project_scaled_simplex(z, 0.5), z, atol=1e-12)

    def test_optimality_certificate(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = rng.standard_normal(5)
            z = project_scaled_simplex(u, 1.0)
            for _ in range(20):
                other = rng.dirichlet(np.ones(5))  # random feasible point, s=1
                assert np.linalg.norm(z - u) <= np.linalg.norm(other - u) + 1e-10

    @given(u=finite_vectors, s=st.floats(0.01, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_permutation_equivariance(self, u, s):
        rng = np.random.default_rng(u.size)
        perm = rng.permutation(u.size)
        direct = project_scaled_simplex(u[perm], s)
        np.testing.assert_allclose(direct, project_scaled_simplex(u, s)[perm], atol=1e-12)

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigError):
            project_scaled_simplex(np.ones(3), 0.0)
        with pytest.raises(ConfigError):
            project_scaled_simplex(np.ones(3), -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            project_scaled_simplex(np.array([1.0, np.nan]), 1.0)


class TestScaledAffine:
    def test_on_hyperplane_is_fixed_point(self):
        np.testing.assert_allclose(
            project_scaled_affine(np.array([0.25, 0.25]), 0.5), [0.25, 0.25], atol=1e-15
        )

    def test_uniform_shift(self):
        np.testing.assert_allclose(
            project_scaled_affine(np.array([1.0, 0.0]), 0.0), [0.5, -0.5], atol=1e-15
        )
        np.testing.assert_allclose(
            project_scaled_affine(np.array([3.0, 1.0, 2.0]), 3.0), [2.0, 0.0, 1.0], atol=1e-15
        )

    def test_sum_and_constant_residual(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            v = rng.standard_normal(n) * 5
            s = float(rng.standard_normal())
            z = project_scaled_affine(v, s)
            assert abs(z.sum() - s) <= 1e-10 * n
            residual = v - z
            assert np.max(residual) - np.min(residual) <= 1e-12

    @given(v=finite_vectors, s=st.floats(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_permutation_equivariance(self, v, s):
        rng = np.random.default_rng(v.size + 1)
        perm = rng.permutation(v.size)
        np.testing.assert_allclose(
            project_scaled_affine(v[perm], s),
            project_scaled_affine(v, s)[perm],
            atol=1e-12,
        )

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            project_scaled_affine(np.array([np.inf, 0.0]), 1.0)


class TestNonNegative:
    def test_examples(self):
        np.testing.assert_array_equal(project_nonneg([[-1.0, 2.0]]), [[0.0, 2.0]])
        np.testing.assert_array_equal(project_nonneg([[0.0, 0.0]]), [[0.0, 0.0]])
        np.testing.assert_array_equal(project_nonneg([[3.0, -0.5, 0.0]]), [[3.0, 0.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            project_nonneg([[np.nan]])


class TestColumnHelpers:
    def test_columnwise_matches_per_vector(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 10))
        by_matrix = project_columns_scaled_simplex(m, 0.7)
        for j in range(10):
            np.testing.assert_array_equal(by_matrix[:, j], project_scaled_simplex(m[:, j], 0.7))
        by_matrix = project_columns_scaled_affine(m, -1.2)
        for j in range(10):
            np.testing.assert_array_equal(by_matrix[:, j], project_scaled_affine(m[:, j], -1.2))


class TestVectorizedColumns:
    """The matrix projections against the per-vector ones, column by column, bit for bit."""

    @staticmethod
    def mixed_matrix(n, rng):
        """Columns with small, medium and large supports, ties and constants, over several blocks."""
        width = 2 * PROJECTION_BLOCK + 37
        m = rng.standard_normal((n, width)) * 1e-3
        m[rng.integers(n, size=width // 4), np.arange(width // 4)] += 1.0     # support 1
        m[:, width // 4 : width // 2] *= 10.0                                 # dense supports
        m[:, width // 2 : width // 2 + 40] = rng.integers(-2, 3, (n, 40)) * 0.1  # ties
        m[:, -20:] = rng.standard_normal(20)                                  # constant columns
        return m

    def test_simplex_equals_vector_projection_across_candidate_paths(self):
        rng = np.random.default_rng(41)
        n = 3 * TOP_M * TOP_M_GROWTH // 2
        m = self.mixed_matrix(n, rng)
        out = project_columns_scaled_simplex(m, 0.5)
        assert out.flags.c_contiguous
        for j in range(m.shape[1]):
            np.testing.assert_array_equal(out[:, j], project_scaled_simplex(m[:, j], 0.5))
        support = (out > 0).sum(axis=0)
        assert support.min() < TOP_M                       # settled on the first partition
        assert np.any((support >= TOP_M) & (support < TOP_M * TOP_M_GROWTH))  # a larger m
        assert support.max() >= TOP_M * TOP_M_GROWTH       # the full sort
        # Large scales, and a column where w_1 + (s - w_1) rounds to 0.
        for big in [m * scale for scale in (1e16, 1e100, 1e300)] + [np.array([[1e20], [0.0]])]:
            out = project_columns_scaled_simplex(big, 0.5)
            for j in range(big.shape[1]):
                np.testing.assert_array_equal(out[:, j], project_scaled_simplex(big[:, j], 0.5))

    def test_simplex_ties_at_the_threshold(self):
        # u = [2, 1, 1, ...] with s = 1 puts the tied entries exactly on the
        # threshold; decimal ties put them within a rounding error of it.
        n = 4 * TOP_M
        m = np.ones((n, 3))
        m[0] = 2.0
        m[:, 1] *= 0.1
        m[0, 1] = 0.3
        m[:, 2] = 0.0
        for s in (1.0, 0.2, 0.5):
            out = project_columns_scaled_simplex(m, s)
            for j in range(3):
                np.testing.assert_array_equal(out[:, j], project_scaled_simplex(m[:, j], s))

    @pytest.mark.parametrize("width", [1, 300])
    def test_any_memory_layout_leaves_the_input_alone(self, width):
        rng = np.random.default_rng(43)
        m = np.asfortranarray(rng.standard_normal((4 * TOP_M, width)))
        kept = m.copy()
        out = project_columns_scaled_simplex(m, 0.5)
        np.testing.assert_array_equal(m, kept)
        assert out.flags.f_contiguous and project_columns_scaled_affine(m, 0.5).flags.f_contiguous
        np.testing.assert_array_equal(out, project_columns_scaled_simplex(kept, 0.5))
        for j in range(width):
            np.testing.assert_array_equal(out[:, j], project_scaled_simplex(kept[:, j], 0.5))

    @pytest.mark.parametrize(
        "project",
        [
            lambda m: project_columns_scaled_simplex(m, 0.5),
            lambda m: project_columns_scaled_affine(m, 0.5),
            project_nonneg,
        ],
        ids=["simplex", "affine", "nonneg"],
    )
    def test_fortran_order_gives_the_same_bits_in_its_own_layout(self, project):
        # A block of rows of Z^T, projected through its transpose, comes back
        # as a block of rows with no strided copy.
        rows = self.mixed_matrix(300, np.random.default_rng(44)).T.copy()
        by_columns = project(rows.T)
        assert by_columns.flags.f_contiguous and by_columns.T.flags.c_contiguous
        reference = project(np.ascontiguousarray(rows.T))
        assert reference.flags.c_contiguous
        np.testing.assert_array_equal(by_columns, reference)

    def test_affine_equals_vector_projection(self):
        rng = np.random.default_rng(42)
        m = self.mixed_matrix(300, rng)
        out = project_columns_scaled_affine(m, 0.7)
        assert out.flags.c_contiguous
        for j in range(m.shape[1]):
            np.testing.assert_array_equal(out[:, j], project_scaled_affine(m[:, j], 0.7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.ones((4, 300))
        m[2, 290] = bad
        with pytest.raises(NumericError):
            project_columns_scaled_simplex(m, 1.0)
        with pytest.raises(NumericError):
            project_columns_scaled_affine(m, 1.0)

    def test_rejects_bad_scale_and_empty_columns(self):
        for s in (0.0, -1.0):
            with pytest.raises(ConfigError):
                project_columns_scaled_simplex(np.ones((3, 2)), s)
        with pytest.raises(ConfigError):
            project_columns_scaled_simplex(np.ones((0, 2)), 1.0)
        with pytest.raises(ConfigError):
            project_columns_scaled_affine(np.ones((0, 2)), 1.0)
