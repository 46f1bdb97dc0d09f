"""The three workloads: inputs made from a seed, one round of operations, and its checks.

Every workload repeats identical rounds. ``run_round`` returns the round's
raw outputs plus the wall time of each call a user would wait on;
``check`` turns the outputs of all rounds into one outcome per operation.
The library is always called through its module attributes at call time, so
the tracer's wrappers see the calls.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import simplexsc
import simplexsc.cli
import simplexsc.dataio
import simplexsc.evaluate
import simplexsc.solvers

# The library's own error types: an operation that raises one has failed.
LIBRARY_ERRORS = (simplexsc.ConfigError, simplexsc.DomainError, simplexsc.NumericError)

# Named fault that makes the zero-diagonal solve fail its certificate.
REZERO_FAULT = (
    "solvers._rezero_diagonal re-projects the already-projected column instead of "
    "projecting the pre-projection column without its diagonal entry"
)


@dataclass
class Outcome:
    """One operation as the checks saw it; ``problems`` is empty when it passed."""

    name: str
    problems: list[str] = field(default_factory=list)
    known_fault: str | None = None


class LargeDefault:
    """One CLI pipeline on a CSV of 5 subspaces, N=3000, D=120, PCA to 60, ssrsc defaults."""

    name = "large-default"
    n_clusters, per_cluster, ambient, sub_dim, sigma, pca_dim = 5, 600, 120, 6, 0.01, 60
    ops_per_round = 1
    # Traced runs add one round under tracemalloc for the solver and spectral
    # peaks. The other workloads skip it: tracemalloc slows their per-column
    # Python loops several-fold.
    memory_round = True
    # The exhaustive-search error must not exceed this (the clusters are orthogonal).
    max_error = 0.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.csv = workdir / "points.csv"
        self.document = workdir / "result.txt"
        self.truth = np.repeat(np.arange(self.n_clusters), self.per_cluster)

    def setup(self) -> None:
        spec = simplexsc.SyntheticSpec(
            self.ambient, self.sub_dim, self.n_clusters, self.per_cluster, self.sigma, seed=self.seed
        )
        simplexsc.dataio.save_csv(self.csv, simplexsc.dataio.generate_synthetic(spec))
        self.manifest = simplexsc.cli.RunManifest(
            solver=simplexsc.SolverConfig(seed=self.seed),
            spectral=simplexsc.SpectralConfig(n_clusters=self.n_clusters, seed=self.seed),
            csv_path=self.csv,
            pca_dim=self.pca_dim,
            output=self.document,
        )

    def run_round(self):
        start = perf_counter()
        result = simplexsc.cli.run_pipeline(self.manifest)
        return [np.array(result.labels)], [perf_counter() - start]

    def check(self, rounds: list) -> tuple[list[Outcome], list[str]]:
        outcomes = []
        for (labels,) in rounds:
            problems = checks.partition_problems(labels, self.truth.size, self.n_clusters)
            if not problems:
                error = checks.permutation_error(labels, self.truth)
                if error > self.max_error:
                    problems.append(f"clustering error {error} exceeds {self.max_error}")
            outcomes.append(Outcome("pipeline", problems))
        text = self.document.read_text(encoding="utf-8")
        outcomes[-1].problems += checks.document_problems(
            text, rounds[-1][0], self.truth.size, self.pca_dim
        )
        return outcomes, []


class FixtureGrid:
    """``run_ablation`` with 2 workers over 4 models x 3 lambdas on 20 fixture datasets."""

    name = "fixture-grid"
    datasets, n_clusters, per_cluster = 20, 3, 50
    models = ("lsr", "nlsr", "slsr", "ssrsc")
    lambdas = (0.001, 0.01, 0.1)
    ops_per_round = datasets * len(models) * len(lambdas)
    memory_round = False
    # The paper's ordering (acceptance criterion 7) plus an absolute ceiling for ssrsc.
    max_ssrsc_error = 0.05

    def __init__(self, seed: int, workdir: Path, workers: int = 2):
        # No more grid threads than the cores this process may run on.
        self.workers = min(workers, len(os.sched_getaffinity(0)))
        self.seeds = [self.datasets * seed + i for i in range(self.datasets)]
        self.truth = np.repeat(np.arange(self.n_clusters), self.per_cluster)

    def setup(self) -> None:
        self.inputs = [
            (
                simplexsc.dataio.generate_synthetic(
                    simplexsc.SyntheticSpec(30, 4, self.n_clusters, self.per_cluster, 0.05, seed=s)
                ),
                simplexsc.SpectralConfig(n_clusters=self.n_clusters, affinity_mode="abs", seed=s),
            )
            for s in self.seeds
        ]
        self.grid = [simplexsc.SolverConfig(model=m, lam=lam) for m in self.models for lam in self.lambdas]

    def run_round(self):
        # The library reports only error rates; the labels behind them are
        # captured at the call so the check can recompute every rate.
        captured: list = []
        original = simplexsc.evaluate.clustering_error

        def capture(pred, truth):
            error = original(pred, truth)
            captured.append((np.array(pred), np.array(truth), error))
            return error

        outputs, calls = [], []
        simplexsc.evaluate.clustering_error = capture
        try:
            for dataset, spectral in self.inputs:
                captured = []
                start = perf_counter()
                report = simplexsc.evaluate.run_ablation(dataset, self.grid, spectral, workers=self.workers)
                calls.append(perf_counter() - start)
                outputs.append((report.rows, captured))
        finally:
            simplexsc.evaluate.clustering_error = original
        return outputs, calls

    def check(self, rounds: list) -> tuple[list[Outcome], list[str]]:
        outcomes, problems = [], []
        for grids in rounds:
            errors = {(m, lam): [] for m in self.models for lam in self.lambdas}
            for rows, captured in grids:
                recomputed = sorted(checks.permutation_error(p, t) for p, t, _ in captured)
                reported = sorted(row.error_rate for row in rows if row.error_rate is not None)
                mismatch = [] if recomputed == reported else [f"reported errors {reported} != recomputed {recomputed}"]
                if any(not np.array_equal(t, self.truth) for _, t, _ in captured):
                    mismatch.append("a grid cell scored against labels other than the generated truth")
                for row in rows:
                    cell = [f"failed: {row.failure}"] if row.failure is not None else []
                    outcomes.append(Outcome(f"{row.model} lambda={row.lam}", cell + mismatch))
                    if row.error_rate is not None:
                        errors[(row.model, row.lam)].append(row.error_rate)
            best = {
                m: min(statistics.median(errors[(m, lam)] or [1.0]) for lam in self.lambdas)
                for m in self.models
            }
            if not (best["ssrsc"] <= best["nlsr"] and best["ssrsc"] <= best["slsr"]):
                problems.append(f"best median errors break ssrsc <= nlsr, slsr: {best}")
            if best["ssrsc"] > self.max_ssrsc_error:
                problems.append(f"best ssrsc median error {best['ssrsc']} exceeds {self.max_ssrsc_error}")
        return outcomes, problems


class SolveToTol:
    """``solve`` to tol=0.01: ssrsc, nlsr, slsr at N=400, and zero-diagonal ssrsc on the N=150 fixture."""

    name = "solve-to-tol"
    max_iters = 5000  # about 8x what ssrsc needs: convergence, not the budget, ends every solve
    # The zero-diagonal solve runs on a fixed input, whatever the seed, so
    # that its known fault fails it on every run.
    fixture_seed = 1
    ops_per_round = 4
    memory_round = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        generate = simplexsc.dataio.generate_synthetic
        points = generate(simplexsc.SyntheticSpec(40, 4, 4, 100, 0.01, seed=self.seed)).data
        fixture = generate(simplexsc.SyntheticSpec(30, 4, 3, 50, 0.05, seed=self.fixture_seed)).data
        base = simplexsc.SolverConfig(max_iters=self.max_iters, tol=0.01)
        self.solves = [
            ("ssrsc", points, replace(base, model="ssrsc")),
            ("nlsr", points, replace(base, model="nlsr")),
            ("slsr", points, replace(base, model="slsr")),
            ("ssrsc zero-diagonal", fixture, replace(base, model="ssrsc", zero_diagonal=True)),
        ]

    def run_round(self):
        outputs = []
        start = perf_counter()
        for _, x, cfg in self.solves:
            try:
                outputs.append(simplexsc.solvers.solve(x, cfg))
            except LIBRARY_ERRORS as exc:
                outputs.append(exc)
        return outputs, [perf_counter() - start]

    def check(self, rounds: list) -> tuple[list[Outcome], list[str]]:
        outcomes = []
        for results in rounds:
            for (name, x, cfg), result in zip(self.solves, results):
                fault = REZERO_FAULT if cfg.zero_diagonal else None
                outcomes.append(Outcome(name, self._problems(x, cfg, result), fault))
        return outcomes, []

    @staticmethod
    def _problems(x: np.ndarray, cfg, result) -> list[str]:
        if isinstance(result, Exception):
            return [f"raised {type(result).__name__}: {result}"]
        z, lam, s = result.coefficients, cfg.lam, cfg.s
        problems = [] if result.converged else [f"not converged in {cfg.max_iters} iterations"]
        if cfg.model in ("ssrsc", "nlsr") and z.min() < 0:
            problems.append(f"negative coefficient {z.min()}")
        if cfg.model in ("ssrsc", "slsr") and np.abs(z.sum(axis=0) - s).max() > checks.SUM_TOL:
            problems.append(f"column sums miss s by {np.abs(z.sum(axis=0) - s).max()}")
        if cfg.zero_diagonal and np.any(np.diag(z) != 0):
            problems.append("nonzero diagonal")
        if cfg.model == "ssrsc":
            certificate, what = checks.simplex_gap(x, z, lam, s, cfg.zero_diagonal), "Frank-Wolfe gap / f"
        elif cfg.model == "nlsr":
            certificate, what = checks.nonneg_residual(x, z, lam), "projected-gradient residual"
        else:
            certificate, what = checks.hyperplane_suboptimality(x, z, lam, s), "(f - f*) / f*"
        if not certificate <= checks.CERTIFICATE_TOL:
            problems.append(f"{what} is {certificate:.3g} > {checks.CERTIFICATE_TOL}")
        return problems


WORKLOADS = {w.name: w for w in (LargeDefault, FixtureGrid, SolveToTol)}
