import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexsc import dataio
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

    @pytest.mark.parametrize("with_labels, include_header", [(True, True), (False, True), (False, False)])
    def test_save_bytes_match_the_csv_writer_loop(self, tmp_path, with_labels, include_header):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((3, 6)) * np.exp(rng.uniform(-300, 300, (3, 6)))
        data[0, 0], data[1, 2], data[2, 5] = -0.0, 0.0, 1 / 3
        labels = np.array([0, -1, 2**53 + 1, -(2**62) - 3, 2**63 - 1, 7]) if with_labels else None
        dataset = LabeledDataset(data, labels)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            if include_header:
                writer.writerow([f"f{i}" for i in range(3)] + (["label"] if with_labels else []))
            for j in range(6):
                row = [format(v, ".17g") for v in data[:, j]]
                if with_labels:
                    row.append(str(int(labels[j])))
                writer.writerow(row)
        path = tmp_path / "saved.csv"
        save_csv(path, dataset, include_header=include_header)
        assert path.read_bytes() == expected.read_bytes()
        assert b"-0," in path.read_bytes() and b"\r\n" in path.read_bytes()


NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: format(v, ".17g")),
    st.integers(-(2**60), 2**60).map(str),
)
# Spellings that float() takes and np.loadtxt may not, and cells that neither takes.
SPELLINGS = st.sampled_from(
    ["nan", "-nan", "NaN", "inf", "-Infinity", "1_0", "1e400", "+.5", "5.", "\uff11", '"1.5"', '" 2 "',
     "9007199254740994", "0.5"]
)
BAD_CELLS = st.sampled_from(["", "1__0", "_1", "0x10", "1d5", "abc", '"2,5"', '""', '"3"4'])
PADDING = st.sampled_from(["", " ", "\t"])
LABELS = st.one_of(
    st.integers(-5, 5).map(str),
    st.integers(-5, 5).map(str),
    st.sampled_from([" 3 ", "1_0", '"2"', "4.0", "0.5", "inf", "nan", "9007199254740994"]),
)


@st.composite
def csv_files(draw):
    """CSV text near the plain numeric kind, and whether to read a header.

    Mixes in quotes, blank lines, padding, Python-only spellings, bad cells,
    ragged rows, headers that are missing or of the wrong width, and bad labels.
    """
    width = draw(st.integers(1, 4))
    kinds = [NUMBERS] * 6 + [SPELLINGS] * draw(st.integers(0, 1)) + [BAD_CELLS] * (draw(st.integers(0, 3)) == 0)
    cell = st.tuples(PADDING, st.one_of(*kinds), PADDING).map("".join)
    labelled = False
    lines = []
    has_header = draw(st.booleans())
    if has_header:
        last = draw(st.sampled_from(["f", "label", " label", "x y"]))
        labelled = last.strip() == "label"
        names = [f"f{i}" for i in range(width - 1)] + [last]
        lines.append(",".join(names if draw(st.integers(0, 5)) else names[:-1]))
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "", " ", "\t"])))
        cells = draw(st.lists(cell, min_size=width, max_size=width))
        if labelled:
            cells[-1] = draw(LABELS)
        if draw(st.integers(0, 9)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text, has_header != (draw(st.integers(0, 5)) == 0)


def loaded(load, path, has_header):
    """What a loader made of a file: the bits of its arrays, or its error type and message."""
    try:
        ds = load(path, has_header)
    except Exception as exc:  # noqa: BLE001  the two loaders must fail alike
        return type(exc), str(exc)
    labels = None if ds.labels is None else (ds.labels.dtype, ds.labels.tobytes())
    return ds.data.shape, ds.data.strides, ds.data.tobytes(), labels


class TestCsvFastPath:
    """load_csv tries np.loadtxt first; the cell-by-cell reader must agree with it everywhere."""

    @given(case=csv_files())
    @settings(max_examples=400, deadline=None)
    def test_loadtxt_path_and_cell_reader_agree(self, tmp_path_factory, case):
        text, has_header = case
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert loaded(load_csv, path, has_header) == loaded(dataio._load_csv_cells, path, has_header)

    def test_plain_numbers_take_the_loadtxt_path(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a, b ,label\n\n1.5, -2e3,0\r\n+.5,5.,7\n")
        fast = dataio._load_plain_csv(path, True)
        assert fast is not None
        assert loaded(load_csv, path, True) == loaded(dataio._load_csv_cells, path, True)
        np.testing.assert_array_equal(fast.labels, [0, 7])
        for text in ('a,b\n"1",2\n', "a,b\n1_0,2\n", "a,label\n1,0.5\n", "a,b\n", "a,b\n1,2\n \n"):
            path.write_text(text)
            assert dataio._load_plain_csv(path, True) is None, text


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
