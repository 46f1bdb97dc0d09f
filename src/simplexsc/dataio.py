"""Synthetic union-of-subspaces data, CSV ingest/export, and PCA reduction.

CSV files are row-per-sample (the dominant convention) with an optional
header and an optional trailing integer "label" column; they are transposed
to the internal column-per-point layout on load.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ConfigError, NumericError, ParseError, ShapeError, as_count, as_data_matrix


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded union-of-subspaces sample."""

    ambient_dim: int
    subspace_dim: int
    n_subspaces: int
    points_per_subspace: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("ambient_dim", "subspace_dim", "n_subspaces", "points_per_subspace"):
            as_count(getattr(self, name), name)
        as_count(self.seed, "seed", 0)
        if self.subspace_dim >= self.ambient_dim:
            raise ConfigError(
                f"subspace_dim must be < ambient_dim "
                f"({self.subspace_dim} >= {self.ambient_dim})"
            )
        if self.points_per_subspace < self.subspace_dim:
            raise ConfigError(
                "points_per_subspace must be >= subspace_dim so each subspace "
                f"is sampled at full rank ({self.points_per_subspace} < {self.subspace_dim})"
            )
        if not np.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be non-negative, got {self.noise_sigma}")


@dataclass
class LabeledDataset:
    """A D x N data matrix with optional ground-truth cluster labels."""

    data: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.data = as_data_matrix(self.data)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.data.shape[1],):
                raise ShapeError(
                    f"labels must have one entry per point "
                    f"({self.labels.shape} vs N={self.data.shape[1]})"
                )


def generate_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Draw a seeded sample of unit-norm points from n random subspaces.

    Bases are orthonormal. When all subspaces fit disjointly in the ambient
    space (n_subspaces * subspace_dim <= ambient_dim) they are drawn mutually
    orthogonal from one joint orthonormalization; otherwise each basis is
    drawn independently. Points are unit-normalized within their subspace
    before isotropic noise of standard deviation noise_sigma is added.
    """
    rng = np.random.default_rng(spec.seed)
    d, sub, n, per = (
        spec.ambient_dim,
        spec.subspace_dim,
        spec.n_subspaces,
        spec.points_per_subspace,
    )
    if n * sub <= d:
        joint, _ = np.linalg.qr(rng.standard_normal((d, n * sub)))
        bases = [joint[:, j * sub : (j + 1) * sub] for j in range(n)]
    else:
        bases = [np.linalg.qr(rng.standard_normal((d, sub)))[0] for _ in range(n)]

    blocks = []
    labels = np.repeat(np.arange(n, dtype=np.int64), per)
    for basis in bases:
        coefficients = rng.standard_normal((sub, per))
        points = basis @ coefficients
        norms = np.linalg.norm(points, axis=0)
        while np.any(norms < 1e-12):  # redraw degenerate (near-zero) samples
            redo = norms < 1e-12
            points[:, redo] = basis @ rng.standard_normal((sub, int(redo.sum())))
            norms = np.linalg.norm(points, axis=0)
        points = points / norms
        if spec.noise_sigma > 0:
            points = points + spec.noise_sigma * rng.standard_normal(points.shape)
        blocks.append(points)
    return LabeledDataset(np.concatenate(blocks, axis=1), labels)


def load_csv(path, has_header: bool = True) -> LabeledDataset:
    """Read a row-per-sample numeric CSV into the column-per-point layout.

    With a header whose last column is named "label", that column is split
    off as integer ground truth. Malformed input (ragged rows, non-numeric
    cells, empty file) raises ParseError naming the offending row/column
    (1-based, counting the header row).
    """
    path = Path(path)
    dataset = _load_plain_csv(path, has_header)
    return dataset if dataset is not None else _load_csv_cells(path, has_header)


def _invalid_labels(raw: np.ndarray) -> np.ndarray:
    # Past 2**53 the float parse no longer keeps integers apart.
    return (raw != np.round(raw)) | ~(np.abs(raw) <= 2.0**53)


def _load_plain_csv(path: Path, has_header: bool) -> LabeledDataset | None:
    """load_csv's dataset by np.loadtxt, or None where the cell-by-cell reader must decide.

    That reader alone unquotes cells, takes Python's float syntax where it
    goes beyond numpy's (``1_0``) and names the row and column of an error.
    The header is read by the csv module; any data np.loadtxt rejects, and
    any header or label that would be an error, goes to that reader.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            lines = iter(handle.readline, "")
            header = next((row for row in csv.reader(lines) if row), None) if has_header else []
            first = next((line for line in lines if line.strip("\r\n")), None)  # csv skips the others
            if header is None or first is None:
                return None
            values = np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError, csv.Error):  # ValueError: numpy's parse errors, decoding errors
        return None
    width = values.shape[1]
    has_labels = bool(header) and header[-1].strip() == "label"
    if (header and len(header) != width) or (has_labels and width < 2):
        return None
    if not has_labels:
        return LabeledDataset(values.T)
    if np.any(_invalid_labels(values[:, -1])):
        return None
    return LabeledDataset(values[:, :-1].T, values[:, -1].astype(np.int64))


def _load_csv_cells(path: Path, has_header: bool) -> LabeledDataset:
    """load_csv, cell by cell through the csv module and float()."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = [(number, row) for number, row in enumerate(csv.reader(handle), start=1)]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    rows = [(number, row) for number, row in rows if row]
    if not rows:
        raise ParseError(f"{path}: file is empty")

    header: list[str] | None = None
    if has_header:
        header = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: no data rows after header")

    width = len(rows[0][1])
    has_labels = header is not None and header and header[-1] == "label"
    if header is not None and len(header) != width:
        raise ParseError(
            f"{path}: row {rows[0][0]} has {width} fields, header has {len(header)}"
        )
    if has_labels and width < 2:
        raise ParseError(f"{path}: label column present but no feature columns")

    values = np.empty((len(rows), width))
    for i, (number, row) in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{path}: row {number} has {len(row)} fields, expected {width}")
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {number}, column {j + 1}: cannot parse {cell.strip()!r} as a number"
                ) from None

    labels = None
    if has_labels:
        raw = values[:, -1]
        invalid = _invalid_labels(raw)
        if np.any(invalid):
            bad = int(np.argmax(invalid))
            raise ParseError(
                f"{path}: row {rows[bad][0]}: label {rows[bad][1][-1].strip()!r} "
                "is not an integer of magnitude at most 2**53"
            )
        labels = raw.astype(np.int64)
        values = values[:, :-1]
    return LabeledDataset(values.T, labels)


def save_csv(path, dataset: LabeledDataset, include_header: bool = True) -> None:
    """Write a dataset as row-per-sample CSV with 17 significant digits."""
    if dataset.labels is not None and not include_header:
        raise ConfigError("labels require a header row for round-tripping")
    d, n = dataset.data.shape
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        if include_header:
            columns = [f"f{i}" for i in range(d)]
            if dataset.labels is not None:
                columns.append("label")
            writer.writerow(columns)
        for j in range(n):
            row = [format(v, ".17g") for v in dataset.data[:, j]]
            if dataset.labels is not None:
                row.append(str(int(dataset.labels[j])))
            writer.writerow(row)


def pca_project(data, target_dim: int) -> np.ndarray:
    """Project points onto their top target_dim principal directions.

    Centers columns by the mean point and takes the SVD of the centered
    matrix (more stable than an explicit covariance eigendecomposition).
    Components are ordered by descending singular value, with each
    direction's largest-magnitude entry made positive so output is unique.
    Returns the target_dim x N coordinate matrix.
    """
    x = as_data_matrix(data)
    d, n = x.shape
    if as_count(target_dim, "target_dim") > min(d, n):
        raise ConfigError(
            f"target_dim must be in [1, min(D, N)] = [1, {min(d, n)}], got {target_dim}"
        )
    centered = x - x.mean(axis=1, keepdims=True)
    try:
        directions, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD of the centered data failed: {exc}") from exc
    coordinates = singular_values[:target_dim, None] * vt[:target_dim]
    for i in range(target_dim):
        anchor = int(np.argmax(np.abs(directions[:, i])))
        if directions[anchor, i] < 0:
            coordinates[i] = -coordinates[i]
    return coordinates
