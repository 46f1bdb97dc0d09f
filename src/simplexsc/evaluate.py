"""Clustering accuracy, affinity mass diagnostics, and model-grid reports."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy.sparse

from .core import (
    ConfigError,
    DomainError,
    NumericError,
    ShapeError,
    SolverConfig,
    as_count,
    as_square_matrix,
)
from .dataio import LabeledDataset
from .solvers import solve
from .spectral import SpectralConfig, build_affinity, spectral_cluster


def clustering_error(pred, truth) -> float:
    """Misassignment rate under the best one-to-one label correspondence.

    Builds the confusion matrix between predicted and true labelings and
    maximizes the matched count by optimal assignment, so the metric is
    invariant to how either side names its clusters.
    """
    from scipy.optimize import linear_sum_assignment  # here, not at load: scipy.optimize is slow and large

    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape != truth.shape:
        raise ShapeError(f"label vectors differ in length: {pred.size} vs {truth.size}")
    if pred.size == 0:
        raise ShapeError("label vectors are empty")
    pred_ids, pred_idx = np.unique(pred, return_inverse=True)
    truth_ids, truth_idx = np.unique(truth, return_inverse=True)
    confusion = np.zeros((pred_ids.size, truth_ids.size), dtype=np.int64)
    np.add.at(confusion, (pred_idx, truth_idx), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    matched = int(confusion[rows, cols].sum())
    return (pred.size - matched) / pred.size


def affinity_diagnostics(a, truth) -> tuple[float, float, float]:
    """Split total affinity mass into within-cluster, between-cluster, and diagonal.

    Returns the three fractions (they sum to 1). The affinity must be
    symmetric and non-negative with positive total mass; a scipy.sparse one
    is read as its dense form.
    """
    a = as_square_matrix(a.toarray() if scipy.sparse.issparse(a) else a, name="affinity matrix")
    truth = np.asarray(truth).ravel()
    if truth.size != a.shape[0]:
        raise ShapeError(f"truth length {truth.size} does not match matrix size {a.shape[0]}")
    if np.any(a < 0):
        raise DomainError("affinity matrix has negative entries")
    total = float(a.sum())
    if total <= 0:
        raise DomainError("affinity matrix has zero total mass")
    diagonal = float(np.trace(a))
    same_cluster = truth[:, None] == truth[None, :]
    within = float(a[same_cluster].sum()) - diagonal
    between = total - diagonal - within
    return within / total, between / total, diagonal / total


@dataclass(frozen=True)
class AblationRow:
    """One (model, hyperparameter) cell of an ablation grid."""

    model: str
    lam: float
    s: float
    error_rate: float | None
    wall_time_seconds: float
    iterations_used: int
    failure: str | None = None


@dataclass
class AblationReport:
    """Grid results in grid order; failed rows carry a message, not an error rate."""

    rows: list[AblationRow]

    def to_csv(self, path) -> None:
        """Write rows as CSV (error_rate empty for failed rows)."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["model", "lambda", "s", "error_rate", "wall_time_seconds", "iterations_used", "failure"]
            )
            for row in self.rows:
                writer.writerow(
                    [
                        row.model,
                        repr(row.lam),
                        repr(row.s),
                        "" if row.error_rate is None else repr(row.error_rate),
                        repr(row.wall_time_seconds),
                        row.iterations_used,
                        row.failure or "",
                    ]
                )

    def format_table(self) -> str:
        """Human-readable aligned table."""
        header = ("model", "lambda", "s", "error", "time(s)", "iters")
        lines = [list(header)]
        for row in self.rows:
            error = "FAILED" if row.error_rate is None else f"{row.error_rate:.4f}"
            lines.append(
                [
                    row.model,
                    f"{row.lam:g}",
                    f"{row.s:g}",
                    error,
                    f"{row.wall_time_seconds:.3f}",
                    str(row.iterations_used),
                ]
            )
        widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
        rendered = ["  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)) for line in lines]
        return "\n".join(rendered)


def run_ablation(
    dataset: LabeledDataset,
    grid: list[SolverConfig],
    spectral: SpectralConfig,
    workers: int = 1,
) -> AblationReport:
    """Run solver -> affinity -> spectral -> error for every grid config.

    Rows that raise are marked failed instead of aborting the sweep. Rows may
    be computed in parallel (``workers`` threads) but the report always
    follows grid order, so results are independent of scheduling.
    """
    if dataset.labels is None:
        raise ConfigError("ablation requires ground-truth labels")
    as_count(workers, "workers")

    def run_cell(cfg: SolverConfig) -> AblationRow:
        start = perf_counter()
        error, iterations, failure = None, 0, None
        try:
            result = solve(dataset.data, cfg)
            affinity = build_affinity(result.coefficients, spectral.affinity_mode)
            labels = spectral_cluster(affinity, spectral)
            error = clustering_error(labels, dataset.labels)
            iterations = result.iterations_used
        except (ConfigError, DomainError, NumericError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
        return AblationRow(
            model=cfg.model,
            lam=cfg.lam,
            s=cfg.s,
            error_rate=error,
            wall_time_seconds=perf_counter() - start,
            iterations_used=iterations,
            failure=failure,
        )

    if workers == 1:
        rows = [run_cell(cfg) for cfg in grid]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_cell, grid))
    return AblationReport(rows)
