"""End-to-end acceptance gates.

Each test prints one pass/fail line (visible with ``pytest -s``) and enforces
both its numeric tolerance and its runtime budget. Fixtures are seeded, so
every run checks identical instances.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest

from simplexsc import (
    SolverConfig,
    SpectralConfig,
    SyntheticSpec,
    build_affinity,
    clustering_error,
    frobenius_distance,
    generate_synthetic,
    project_scaled_simplex,
    regularized_gram_inverse,
    run_ablation,
    solve,
    solve_nlsr,
    solve_slsr,
    solve_ssrsc,
    spectral_cluster,
)

from oracles import (
    admm_with_inverse,
    exhaustive_permutation_error,
    hyperplane_column_oracle,
    nnls_column_oracle,
    pgd_ssrsc_oracle,
    simplex_projection_oracle,
    ssrsc_column_oracle,
)

TIGHT = dict(max_iters=20000, tol=1e-10)


@contextmanager
def criterion(number, name, budget_seconds):
    start = perf_counter()
    ok = False
    try:
        yield
        elapsed = perf_counter() - start
        assert elapsed <= budget_seconds, (
            f"criterion {number} runtime {elapsed:.1f}s exceeds budget {budget_seconds}s"
        )
        ok = True
    finally:
        elapsed = perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"criterion {number:>2} [{status}] {name} ({elapsed:.1f}s)")


def test_criterion_01_simplex_projection_oracle_equivalence():
    with criterion(1, "simplex projection matches active-set enumeration", 30):
        rng = np.random.default_rng(101)
        for n in range(1, 9):
            for _ in range(1000):
                u = rng.uniform(-4.0, 4.0, n) * rng.uniform(0.2, 3.0)
                s = float(rng.uniform(0.05, 3.0))
                ours = project_scaled_simplex(u, s)
                reference = simplex_projection_oracle(u, s)
                assert np.max(np.abs(ours - reference)) <= 1e-8


def test_criterion_02_admm_feasibility():
    with criterion(2, "simplex solver output is exactly feasible", 10):
        rng = np.random.default_rng(202)
        for _ in range(50):
            x = rng.standard_normal((5, 12))
            z = solve_ssrsc(x, SolverConfig(model="ssrsc")).coefficients
            assert np.all(z >= 0.0)
            assert np.max(np.abs(z.sum(axis=0) - 0.5)) <= 1e-8 * 12


def test_criterion_03_per_column_qp_oracles():
    with criterion(3, "solver columns match independent QP oracles", 120):
        rng = np.random.default_rng(303)
        for _ in range(20):
            d = int(rng.integers(3, 8))
            n = int(rng.integers(4, 11))
            x = rng.standard_normal((d, n))
            lam = float(rng.choice([0.01, 0.05, 0.1]))
            s = float(rng.choice([0.3, 0.5, 1.0]))

            simplex = solve_ssrsc(x, SolverConfig(model="ssrsc", lam=lam, s=s, **TIGHT))
            pgd = pgd_ssrsc_oracle(x, lam, s, iters=100_000)
            assert np.max(np.abs(simplex.coefficients - pgd)) <= 1e-3

            nonneg = solve_nlsr(x, SolverConfig(model="nlsr", lam=lam, **TIGHT))
            for j in range(n):
                assert np.max(
                    np.abs(nonneg.coefficients[:, j] - nnls_column_oracle(x, j, lam))
                ) <= 1e-3

            affine = solve_slsr(x, SolverConfig(model="slsr", lam=lam, s=s, **TIGHT))
            for j in range(n):
                assert np.max(
                    np.abs(affine.coefficients[:, j] - hyperplane_column_oracle(x, j, lam, s))
                ) <= 1e-3


def test_criterion_04_woodbury_equivalence():
    with criterion(4, "Woodbury and direct inversion agree", 30):
        rng = np.random.default_rng(404)
        for _ in range(100):
            d = int(rng.integers(1, 50))
            n = int(rng.integers(d + 1, 51))
            x = rng.standard_normal((d, n))
            shift = float(rng.uniform(0.05, 2.0))
            direct = regularized_gram_inverse(x, shift, mode="direct")
            woodbury = regularized_gram_inverse(x, shift, mode="woodbury")
            assert frobenius_distance(direct, woodbury) <= 1e-8
        # The solvers' thin-SVD ridge route against ADMM through either explicit inverse.
        for model in ("ssrsc", "nlsr", "slsr"):
            cfg = SolverConfig(model=model)
            shift = (2 * cfg.lam + cfg.rho) / 2 if model == "nlsr" else cfg.rho / 2
            for seed in range(3):
                x = np.random.default_rng(440 + seed).standard_normal((4, 18))
                result = solve(x, cfg)
                for mode in ("direct", "woodbury"):
                    inverse = regularized_gram_inverse(x, shift, mode=mode)
                    reference, _ = admm_with_inverse(
                        x, inverse, model, cfg.lam, cfg.s, cfg.rho, result.iterations_used
                    )
                    assert frobenius_distance(result.coefficients, reference) <= 1e-6


def test_criterion_05_convergence_speed_at_defaults():
    with criterion(5, "residuals below 0.01 within 5 iterations at defaults", 60):
        converged = 0
        for seed in range(20):
            dataset = generate_synthetic(SyntheticSpec(30, 4, 3, 50, 0.0, seed=seed))
            result = solve_ssrsc(dataset.data, SolverConfig(model="ssrsc"))
            converged += result.converged
        assert converged >= 18, (
            f"only {converged}/20 seeds reached all residuals <= 0.01 within 5 iterations"
        )


def test_criterion_06_end_to_end_clustering_quality():
    with criterion(6, "median clustering error <= 5% on the noisy fixture", 120):
        errors = []
        for seed in range(20):
            dataset = generate_synthetic(SyntheticSpec(30, 4, 3, 50, 0.01, seed=seed))
            solved = solve_ssrsc(dataset.data, SolverConfig(model="ssrsc"))
            affinity = build_affinity(solved.coefficients, "sym")
            labels = spectral_cluster(affinity, SpectralConfig(n_clusters=3, seed=seed))
            errors.append(clustering_error(labels, dataset.labels))
        assert float(np.median(errors)) <= 0.05


def test_criterion_07_ablation_ordering():
    with criterion(7, "constraint ablation reproduces the error ordering", 600):
        lambdas = (0.001, 0.01, 0.1)
        models = ("lsr", "nlsr", "slsr", "ssrsc")
        per_cell = {model: {lam: [] for lam in lambdas} for model in models}
        for seed in range(20):
            dataset = generate_synthetic(SyntheticSpec(30, 4, 3, 50, 0.05, seed=seed))
            grid = [SolverConfig(model=m, lam=lam) for m in models for lam in lambdas]
            spectral = SpectralConfig(n_clusters=3, affinity_mode="abs", seed=seed)
            report = run_ablation(dataset, grid, spectral)
            for row in report.rows:
                assert row.failure is None, row
                per_cell[row.model][row.lam].append(row.error_rate)
        best = {
            model: min(float(np.median(cell)) for cell in per_cell[model].values())
            for model in models
        }
        assert best["ssrsc"] <= best["nlsr"], best
        assert best["nlsr"] <= best["lsr"] + 0.02, best
        assert best["ssrsc"] <= best["slsr"], best
        assert best["slsr"] <= best["lsr"] + 0.02, best


def test_criterion_08_boundary_property():
    with criterion(8, "negative hyperplane optima force boundary solutions", 60):
        rng = np.random.default_rng(808)
        qualifying = 0
        attempts = 0
        while qualifying < 100:
            attempts += 1
            assert attempts < 5000, "could not sample enough qualifying instances"
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, 7))
            x = rng.standard_normal((d, n))
            lam = float(rng.choice([0.01, 0.05, 0.1]))
            s = float(rng.choice([0.3, 0.5, 1.0]))
            j = int(rng.integers(n))
            hyperplane = hyperplane_column_oracle(x, j, lam, s)
            if np.min(hyperplane) >= 0:
                continue
            simplex = ssrsc_column_oracle(x, j, lam, s)
            assert np.min(simplex) <= 1e-6
            qualifying += 1


def test_criterion_09_metric_matches_exhaustive_search():
    with criterion(9, "assignment metric equals exhaustive permutation search", 10):
        rng = np.random.default_rng(909)
        for _ in range(500):
            n = int(rng.integers(1, 6))
            size = int(rng.integers(n, 40))
            pred = rng.integers(0, n, size)
            truth = rng.integers(0, n, size)
            assert clustering_error(pred, truth) == exhaustive_permutation_error(pred, truth)


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "pipeline output is bitwise deterministic", 120):
        args = [
            sys.executable, "-m", "simplexsc.cli",
            "--synthetic", "30,4,3,50,0.01", "--seed", "7",
        ]
        outputs = []
        for tag, threads in (("a", None), ("b", None), ("t1", "1"), ("t4", "4")):
            path = tmp_path / f"run_{tag}.txt"
            env = dict(os.environ)
            if threads is not None:
                env["OMP_NUM_THREADS"] = threads
                env["OPENBLAS_NUM_THREADS"] = threads
                env["MKL_NUM_THREADS"] = threads
            proc = subprocess.run(
                args + ["--output", str(path)], capture_output=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], "repeat invocations differ"
        assert outputs[2] == outputs[3], "thread counts 1 and 4 differ"
        assert outputs[0] == outputs[2]

        # library-level thread knob: ablation rows across worker counts
        dataset = generate_synthetic(SyntheticSpec(12, 2, 2, 10, 0.01, seed=3))
        grid = [SolverConfig(model=m) for m in ("lsr", "nlsr", "slsr", "ssrsc")]
        spectral = SpectralConfig(n_clusters=2, affinity_mode="abs", seed=3)
        serial = run_ablation(dataset, grid, spectral, workers=1)
        threaded = run_ablation(dataset, grid, spectral, workers=4)
        assert [r.error_rate for r in serial.rows] == [r.error_rate for r in threaded.rows]
