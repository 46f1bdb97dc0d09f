import numpy as np
import pytest

from simplexsc import (
    ConfigError,
    LabeledDataset,
    ParseError,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    pca_project,
    save_csv,
)


class TestSyntheticSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ambient_dim": 4, "subspace_dim": 4, "n_subspaces": 1, "points_per_subspace": 5},
            {"ambient_dim": 4, "subspace_dim": 2, "n_subspaces": 0, "points_per_subspace": 5},
            {"ambient_dim": 4, "subspace_dim": 3, "n_subspaces": 1, "points_per_subspace": 2},
            {"ambient_dim": 4, "subspace_dim": 2, "n_subspaces": 1, "points_per_subspace": 5,
             "noise_sigma": -0.1},
            {"ambient_dim": 6.0, "subspace_dim": 2, "n_subspaces": 2, "points_per_subspace": 5},
            {"ambient_dim": 4, "subspace_dim": 2, "n_subspaces": 1, "points_per_subspace": 5,
             "seed": -1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SyntheticSpec(**kwargs)


class TestGenerateSynthetic:
    def test_noiseless_points_lie_in_subspace(self):
        spec = SyntheticSpec(8, 3, 1, 10, 0.0, seed=3)
        ds = generate_synthetic(spec)
        u, _, _ = np.linalg.svd(ds.data, full_matrices=False)
        basis = u[:, :3]
        residual = ds.data - basis @ (basis.T @ ds.data)
        assert np.max(np.abs(residual)) <= 1e-10

    def test_orthogonal_subspaces_when_they_fit(self):
        spec = SyntheticSpec(10, 2, 2, 6, 0.0, seed=4)
        ds = generate_synthetic(spec)
        block_a = ds.data[:, :6]
        block_b = ds.data[:, 6:]
        assert np.max(np.abs(block_a.T @ block_b)) <= 1e-10

    def test_deterministic(self):
        spec = SyntheticSpec(6, 2, 3, 4, 0.05, seed=11)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_unit_norm_before_noise(self):
        ds = generate_synthetic(SyntheticSpec(7, 2, 2, 5, 0.0, seed=5))
        np.testing.assert_allclose(np.linalg.norm(ds.data, axis=0), 1.0, atol=1e-12)

    def test_per_subspace_rank(self):
        spec = SyntheticSpec(12, 4, 3, 9, 0.0, seed=6)
        ds = generate_synthetic(spec)
        for j in range(3):
            block = ds.data[:, ds.labels == j]
            singular = np.linalg.svd(block, compute_uv=False)
            assert np.sum(singular > 1e-8) == 4

    def test_labels_block_structure(self):
        ds = generate_synthetic(SyntheticSpec(5, 2, 2, 3, 0.0, seed=7))
        np.testing.assert_array_equal(ds.labels, [0, 0, 0, 1, 1, 1])

    def test_crowded_subspaces_still_full_rank(self):
        # n*d > D forces the independent-basis path
        spec = SyntheticSpec(5, 2, 4, 6, 0.0, seed=8)
        ds = generate_synthetic(spec)
        assert ds.data.shape == (5, 24)
        for j in range(4):
            block = ds.data[:, ds.labels == j]
            assert np.sum(np.linalg.svd(block, compute_uv=False) > 1e-8) == 2


class TestCsvRoundTrip:
    def test_load_shape_and_transpose(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        ds = load_csv(path)
        assert ds.data.shape == (2, 3)
        np.testing.assert_array_equal(ds.data, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
        assert ds.labels is None

    def test_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,label\n0.5,1.5,0\n0.25,2.5,0\n9,9,1\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.labels, [0, 0, 1])
        assert ds.data.shape == (2, 3)

    def test_headerless(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n")
        ds = load_csv(path, has_header=False)
        assert ds.data.shape == (2, 2)
        assert ds.labels is None

    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((4, 7)) * np.exp(rng.uniform(-8, 8, (4, 7)))
        labels = rng.integers(0, 3, 7)
        path = tmp_path / "round.csv"
        save_csv(path, LabeledDataset(data, labels))
        back = load_csv(path)
        np.testing.assert_array_equal(back.data, data)
        np.testing.assert_array_equal(back.labels, labels)

    def test_scientific_notation_accepted(self, tmp_path):
        path = tmp_path / "sci.csv"
        path.write_text("u,v\n1e-3,2E+4\n-3.5e2,0\n")
        ds = load_csv(path)
        np.testing.assert_allclose(ds.data[:, 0], [1e-3, 2e4])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_csv(path)

    def test_ragged_rows_report_location(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3,4,5\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(path)

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ParseError, match=r"row 3, column 2"):
            load_csv(path)

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("a,label\n1,0.5\n")
        with pytest.raises(ParseError, match="integer"):
            load_csv(path)

    @pytest.mark.parametrize(
        "text, match",
        [
            # Cast to int64, inf, 1e300 and 2e300 would all become -2**63.
            ("a,b,label\n1,2,inf\n3,4,1e300\n5,6,2e300\n", "row 2: label 'inf'"),
            # +-2**53 load; 2**53 + 2 does not.
            (
                "a,label\n1,9007199254740992\n2,-9007199254740992\n3,9007199254740994\n",
                "row 4: label '9007199254740994'",
            ),
        ],
        ids=["non-finite", "beyond 2**53"],
    )
    def test_non_finite_or_huge_label_rejected(self, tmp_path, text, match):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=match):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(tmp_path / "nope.csv")

    def test_headerless_save_with_labels_rejected(self, tmp_path):
        ds = LabeledDataset(np.eye(2), np.array([0, 1]))
        with pytest.raises(ConfigError):
            save_csv(tmp_path / "x.csv", ds, include_header=False)


class TestPca:
    def test_exact_low_rank_reconstruction(self):
        rng = np.random.default_rng(10)
        basis = np.linalg.qr(rng.standard_normal((9, 3)))[0]
        data = basis @ rng.standard_normal((3, 20)) + rng.standard_normal((9, 1))
        coords = pca_project(data, 3)
        centered = data - data.mean(axis=1, keepdims=True)
        directions = np.linalg.svd(centered, full_matrices=False)[0][:, :3]
        signs = np.sign(directions[np.abs(directions).argmax(axis=0), range(3)])
        np.testing.assert_allclose((directions * signs) @ coords, centered, atol=1e-8)

    def test_full_dimension_preserves_variance(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((5, 12))
        coords = pca_project(data, 5)
        centered = data - data.mean(axis=1, keepdims=True)
        assert np.sum(coords**2) == pytest.approx(np.sum(centered**2), rel=1e-8)

    def test_projection_variance_matches_singular_values(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((10, 40))
        coords = pca_project(data, 3)
        centered = data - data.mean(axis=1, keepdims=True)
        singular = np.linalg.svd(centered, compute_uv=False)
        assert np.sum(coords**2) / 40 == pytest.approx(np.sum(singular[:3] ** 2) / 40, rel=1e-8)

    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((6, 15))
        shifted = data + rng.standard_normal((6, 1))
        np.testing.assert_allclose(pca_project(data, 4), pca_project(shifted, 4), atol=1e-8)

    def test_component_order_and_sign(self):
        rng = np.random.default_rng(14)
        data = rng.standard_normal((6, 30)) * np.array([[10, 3, 1, 0.3, 0.1, 0.03]]).T
        coords = pca_project(data, 6)
        norms = np.linalg.norm(coords, axis=1)
        assert np.all(np.diff(norms) <= 1e-9)
        centered = data - data.mean(axis=1, keepdims=True)
        directions = np.linalg.svd(centered, full_matrices=False)[0]
        # convention pins each direction's largest-|entry| positive
        for i in range(6):
            anchor = np.abs(directions[:, i]).argmax()
            expected = directions[:, i] * np.sign(directions[anchor, i])
            recovered = centered @ coords[i] / (coords[i] @ coords[i])
            np.testing.assert_allclose(recovered, expected, atol=1e-8)

    def test_rejects_out_of_range_dim(self):
        with pytest.raises(ConfigError):
            pca_project(np.eye(3), 0)
        with pytest.raises(ConfigError):
            pca_project(np.eye(3), 4)
        with pytest.raises(ConfigError, match="target_dim must be an integer"):
            pca_project(np.eye(3), 2.5)
