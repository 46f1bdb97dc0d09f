"""Clustering accuracy, affinity mass diagnostics, and model-grid reports."""

from __future__ import annotations

import atexit
import csv
import threading
from dataclasses import dataclass
from itertools import repeat
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


def _cell(data: np.ndarray, spectral: SpectralConfig, cfg: SolverConfig):
    """One grid cell up to its labels: (labels, iterations_used, failure, seconds).

    It runs in a grid worker or in-process; ``run_ablation`` scores the labels.
    """
    start = perf_counter()
    try:
        result = solve(data, cfg)
        labels = spectral_cluster(build_affinity(result.coefficients, spectral.affinity_mode), spectral)
    except (ConfigError, DomainError, NumericError) as exc:
        return None, 0, f"{type(exc).__name__}: {exc}", perf_counter() - start
    return labels, result.iterations_used, None, perf_counter() - start


# run_ablation's kept worker pool as (workers, executor), or None.
_kept = None


def _grid_pool(workers: int):
    """The kept fork pool of ``workers`` processes, made on first use; None runs the cells in-process.

    A kept pool of another size is shut down first. No pool is made where
    ``fork`` is unavailable or other threads are alive: a forked copy of a
    threaded process can deadlock on a lock that one of them held.
    """
    global _kept
    if _kept is not None and _kept[0] != workers:
        _shutdown_pool()
    if _kept is None:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
            return None
        from concurrent.futures import ProcessPoolExecutor

        _kept = workers, ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    return _kept[1]


@atexit.register
def _shutdown_pool() -> None:
    """End the kept pool's workers; the next parallel ``run_ablation`` forks new ones.

    Registered with atexit, so that the pool is gone before the interpreter
    tears its modules down.
    """
    global _kept
    if _kept is not None:
        (_, pool), _kept = _kept, None
        pool.shutdown()


def run_ablation(
    dataset: LabeledDataset,
    grid: list[SolverConfig],
    spectral: SpectralConfig,
    workers: int = 1,
) -> AblationReport:
    """Run solver -> affinity -> spectral -> error for every grid config.

    Rows that raise are marked failed instead of aborting the sweep. With
    ``workers`` > 1 the cells run on that many worker processes, forked on
    the first such call and kept for later ones; the labels come back and
    are scored here. The report always follows grid order, so results are
    independent of scheduling. A worker process that dies raises
    ``NumericError``, and the next call forks a fresh pool.
    """
    if dataset.labels is None:
        raise ConfigError("ablation requires ground-truth labels")
    as_count(workers, "workers")

    pool = _grid_pool(workers) if workers > 1 else None
    if pool is None:
        cells = [_cell(dataset.data, spectral, cfg) for cfg in grid]
    else:
        from concurrent.futures.process import BrokenProcessPool

        try:
            # One cell a task: 2 or 6 a task measured slower on the N=150 grid.
            cells = list(pool.map(_cell, repeat(dataset.data), repeat(spectral), grid, chunksize=1))
        except BrokenProcessPool as exc:
            _shutdown_pool()
            raise NumericError(f"an ablation worker process died: {exc}") from exc

    rows = []
    for cfg, (labels, iterations, failure, seconds) in zip(grid, cells):
        start = perf_counter()
        error = None if failure is not None else clustering_error(labels, dataset.labels)
        rows.append(
            AblationRow(
                model=cfg.model,
                lam=cfg.lam,
                s=cfg.s,
                error_rate=error,
                wall_time_seconds=seconds + perf_counter() - start,
                iterations_used=iterations,
                failure=failure,
            )
        )
    return AblationReport(rows)
