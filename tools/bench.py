"""Time the default ssrsc pipeline stage by stage, its solve and k-means, and record them in three BENCH files.

Run from the root of a checkout:

    python tools/bench.py [--src DIR] [--label NAME]

Pipeline and solve inputs: seeded union-of-subspaces samples
(``SyntheticSpec``, noise 0.01, seed 1):

- N=400: 4 subspaces of dimension 4 in 40 dimensions (2 row blocks);
- N=1024: the same with 256 points each (4 row blocks);
- N=1500 and N=3000: 5 subspaces of dimension 6 in 120 dimensions, reduced
  to 60 by ``pca_project`` (6 and 12 row blocks; the second is the input of
  the ``large-default`` pipeline).

One pipeline is ``solve`` with ``SolverConfig()`` (ssrsc, 5 iterations),
``build_affinity`` ("sym") and ``spectral_cluster`` with
``SpectralConfig(k, seed=1)``, k the number of subspaces. Each stage is
timed best of 5; k-means is timed inside the spectral stage by wrapping
``simplexsc.spectral.kmeans``, which the stage looks up at call time. The
same solve timings go to ``BENCH_admm.json`` and ``BENCH_pipeline.json``.
One more pipeline runs under tracemalloc for the peak allocation of the
solve and of the spectral stage (each from a reset peak). Four more solves
to tolerance (tol 0.01, at most 5000 iterations, best of 5 each) are the
``solve-to-tol`` workload's: ssrsc, slsr and nlsr on the N=400 input, under
``to_tolerance`` for ssrsc and ``to_tolerance_<model>`` for the other two,
and zero-diagonal ssrsc on the N=150 fixture (``SyntheticSpec(30, 4, 3, 50,
0.05, seed=1)``), under ``to_tolerance_zero_diagonal``. Two more, ssrsc with
and without ``zero_diagonal`` on the N=3000 input (``large-default``'s),
go under ``to_tolerance_n3000`` and ``to_tolerance_n3000_zero_diagonal``.
Each records the certificate of its Z, from ``perfbench/checks.py``: the
Frank-Wolfe gap over f(Z) for ssrsc, (f - f*)/f* for slsr and the
projected-gradient residual for nlsr. Its ``solver`` block also holds the
module constants of ``simplexsc.solvers`` that shape a long solve
(``RELAXATION``, the ``BALANCE_*`` rule, ``POLISH_ROUNDS`` and
``START_SUPPORT``), null where the imported sources lack one, and
``jump_after_iteration`` the iteration after which the solve's certified
jump to the optimum landed (0: before the first), null if none did (or
the sources have none); ``ms_per_iteration`` is null for a solve of 0
iterations.

k-means inputs: k unit-normalised Gaussian blobs in k dimensions (the shape
of the row-normalised spectral embedding that kmeans receives), fixed seeds:

- N=150, k=3: one cell of the 20-fixture ablation grid, timed over 12 inputs;
- N=3000, k=5: one large-N embedding;
- N=600, k=10, timed over 3 inputs: from 8 columns on numpy sums a row
  pairwise, and kmeans takes another route to keep its bits.

Each is timed best of 5 per call inside ``simplexsc.blas.single_blas_thread``.

Grid inputs: ``run_ablation`` with the ``abs`` affinity and
``SpectralConfig(k, seed)``, the dataset's seed, on 1 and on 2 workers:

- N=150, ``fixture-grid``'s shape: the 20 acceptance fixtures
  (``SyntheticSpec(30, 4, 3, 50, 0.05)``, seeds 0-19), 4 models x 3 lambdas;
- N=1000: ``SyntheticSpec(40, 4, 4, 250, 0.05, seed=1)``, 4 models x 2 lambdas.

One untimed pass per worker count comes first (it makes a kept pool, where
the sources keep one); each timing is then the mean call over the inputs,
best of 5.

Everything runs on one BLAS thread (``OPENBLAS_NUM_THREADS=1`` unless set;
the solver pins the BLAS to one thread itself). Each file gets the run under
``runs[NAME]``, next to the runs of other labels, with the core count and
the BLAS thread count. SHA-256 digests let two labels be checked for the
same output: ``BENCH_admm.json`` digests Z (its dense C-ordered form, also
for a sparse Z) and the residual history and records the helper threads a
solve started; ``BENCH_pipeline.json`` digests the labels, records the
share of nonzero entries in Z and in the affinity, and in its ``grid`` block
digests every grid row's error rate, iterations and failure;
``BENCH_kmeans.json`` digests every returned label array and objective.
``--src`` imports simplexsc from another checkout's ``src`` directory, for
example a copy of the parent commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import tracemalloc
from pathlib import Path
from time import perf_counter

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  after the BLAS thread default

ROOT = Path(__file__).resolve().parents[1]
# (N, SyntheticSpec arguments, PCA dimension or None)
SIZES = (
    (400, (40, 4, 4, 100), None),
    (1024, (40, 4, 4, 256), None),
    (1500, (120, 6, 5, 300), 60),
    (3000, (120, 6, 5, 600), 60),
)
REPEATS = 5
TO_TOLERANCE = {"tol": 0.01, "max_iters": 5000}
TOLERANCE_FIXTURE = (30, 4, 3, 50, 0.05, 1)  # SyntheticSpec of the zero-diagonal solve
# simplexsc.solvers constants recorded with every solve to tolerance
SOLVER_CONSTANTS = (
    "RELAXATION", "BALANCE_FROM", "BALANCE_RATIO", "BALANCE_STEP", "BALANCE_CAP", "POLISH_ROUNDS", "START_SUPPORT"
)
# (name, N, k, inputs per timing, seed of the first input)
KMEANS_SHAPES = (("grid-cell", 150, 3, 12, 0), ("large", 3000, 5, 1, 100), ("ten-clusters", 600, 10, 3, 200))
KMEANS_NOISE = 0.35
MODELS = ("lsr", "nlsr", "slsr", "ssrsc")
# (name, SyntheticSpec arguments but the seed, seeds, lambdas)
GRID_SHAPES = (
    ("fixture-grid", (30, 4, 3, 50, 0.05), range(20), (0.001, 0.01, 0.1)),
    ("n1000", (40, 4, 4, 250, 0.05), (1,), (0.01, 0.1)),
)
GRID_WORKERS = (1, 2)


def with_helper_threads(call):
    """Run call() and return the number of threads it started and its result."""
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    threading.Thread.start = recording
    try:
        result = call()
    finally:
        threading.Thread.start = start
    return len(started), result


def with_jump(solvers, model: str, call):
    """Run call() and return the iteration after which model's certified jump landed (None if none did) and its result.

    The attempts come after the iterations that ``solvers._attempts_after``
    names, 0 meaning before the first (only sources that try one there
    name it); sources without a jump in their model table give None.
    """
    table = getattr(solvers, "_ADMM_MODELS", {})
    entry = table.get(model)
    if getattr(entry, "jump", None) is None:
        return None, call()
    landed = []

    def recording(*args):
        write = entry.jump(*args)
        landed.append(write is not None)
        return write

    table[model] = entry._replace(jump=recording)
    try:
        result = call()
    finally:
        table[model] = entry
    attempts = [k for k in range(result.iterations_used + 1) if solvers._attempts_after(k)]
    return next((k for k, ok in zip(attempts, landed) if ok), None), result


def seconds(call) -> float:
    start = perf_counter()
    call()
    return perf_counter() - start


def best_and_median(times: list[float]) -> tuple[float, float]:
    return min(times), sorted(times)[len(times) // 2]


def solve_digest(result) -> str:
    z = result.coefficients
    z = z.toarray() if hasattr(z, "toarray") else z  # scipy.sparse from SPARSE_EIGEN_MIN_N points on
    digest = hashlib.sha256(np.ascontiguousarray(z).tobytes())
    digest.update(np.asarray(result.residual_history, dtype=np.float64).tobytes())
    return digest.hexdigest()


def density(m) -> float:
    nonzero = m.nnz if hasattr(m, "nnz") else np.count_nonzero(m)
    return nonzero / (m.shape[0] * m.shape[1])


def blobs(n: int, k: int, seed: int) -> np.ndarray:
    """n points in k unit-normalised Gaussian blobs around k random directions."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, k))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    points = centers[rng.integers(0, k, n)] + KMEANS_NOISE * rng.standard_normal((n, k))
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def rows_digest(reports) -> str:
    digest = hashlib.sha256()
    for report in reports:
        for row in report.rows:
            digest.update(repr((row.error_rate, row.iterations_used, row.failure)).encode())
    return digest.hexdigest()


def write(name: str, label: str, run: dict) -> None:
    """Put run under runs[label] of BENCH_<name>.json, keeping the other labels' runs."""
    path = ROOT / f"BENCH_{name}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    record.setdefault("runs", {})[label] = run
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory that holds simplexsc")
    parser.add_argument("--label", default="current", help="key of this run in the output files")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import simplexsc.solvers
    import simplexsc.spectral
    from simplexsc import SolverConfig, SpectralConfig, SyntheticSpec, generate_synthetic, pca_project
    from simplexsc import build_affinity, kmeans, run_ablation, solve, spectral_cluster
    from simplexsc.blas import controllable_openblas, single_blas_thread

    with single_blas_thread():
        blas_threads = sorted({lib.get_num_threads() for lib in controllable_openblas()})
    common = {
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "repeats": REPEATS,
    }
    kmeans_seconds: list[float] = []

    def timed_kmeans(*call_args, **kwargs):
        start = perf_counter()
        try:
            return kmeans(*call_args, **kwargs)
        finally:
            kmeans_seconds.append(perf_counter() - start)

    cfg = SolverConfig()
    solves, pipelines, points_of = {}, {}, {}
    simplexsc.spectral.kmeans = timed_kmeans
    try:
        for n, spec, pca_dim in SIZES:
            x = generate_synthetic(SyntheticSpec(*spec, 0.01, seed=1)).data
            if pca_dim is not None:
                x = pca_project(x, pca_dim)
            assert x.shape[1] == n
            points_of[n] = x
            spectral_cfg = SpectralConfig(n_clusters=spec[2], seed=1)
            threads, result = with_helper_threads(lambda: solve(x, cfg))
            times = {"solve": [], "affinity": [], "spectral": [], "kmeans": []}
            for _ in range(REPEATS):
                start = perf_counter()
                z = solve(x, cfg).coefficients
                solved = perf_counter()
                affinity = build_affinity(z, "sym")
                built = perf_counter()
                labels = spectral_cluster(affinity, spectral_cfg)
                times["spectral"].append(perf_counter() - built)
                times["affinity"].append(built - solved)
                times["solve"].append(solved - start)
                times["kmeans"].append(kmeans_seconds.pop())
            tracemalloc.start()
            try:
                z = solve(x, cfg).coefficients
                solve_peak = tracemalloc.get_traced_memory()[1]
                affinity = build_affinity(z, "sym")
                tracemalloc.reset_peak()
                spectral_cluster(affinity, spectral_cfg)
                spectral_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            spreads = {stage: best_and_median(values) for stage, values in times.items()}
            solves[str(n)] = {
                "d": x.shape[0],
                "iterations": result.iterations_used,
                "helper_threads": threads,
                "best_s": spreads["solve"][0],
                "median_s": spreads["solve"][1],
                "output_sha256": solve_digest(result),
            }
            pipelines[str(n)] = {
                "d": x.shape[0],
                "helper_threads": threads,
                "z_density": density(z),
                "affinity_density": density(affinity),
                "affinity_type": type(affinity).__name__,
                "best_s": {stage: spread[0] for stage, spread in spreads.items()},
                "median_s": {stage: spread[1] for stage, spread in spreads.items()},
                "solve_peak_mb": solve_peak / 1e6,
                "spectral_peak_mb": spectral_peak / 1e6,
                "labels_sha256": hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes()).hexdigest(),
            }
            best = pipelines[str(n)]["best_s"]
            print(
                f"{args.label} N={n}: solve {best['solve'] * 1e3:.1f} ms, affinity "
                f"{best['affinity'] * 1e3:.1f} ms, spectral {best['spectral'] * 1e3:.1f} ms "
                f"(k-means {best['kmeans'] * 1e3:.1f} ms), {threads} helper threads"
            )
    finally:
        simplexsc.spectral.kmeans = kmeans

    sys.path.append(str(ROOT))
    from perfbench import checks

    x = points_of[400]
    fixture = generate_synthetic(SyntheticSpec(*TOLERANCE_FIXTURE)).data
    tolerance_solves = (
        ("to_tolerance", x, {"model": "ssrsc"}),
        ("to_tolerance_slsr", x, {"model": "slsr"}),
        ("to_tolerance_nlsr", x, {"model": "nlsr"}),
        ("to_tolerance_zero_diagonal", fixture, {"model": "ssrsc", "zero_diagonal": True}),
        ("to_tolerance_n3000", points_of[3000], {"model": "ssrsc"}),
        ("to_tolerance_n3000_zero_diagonal", points_of[3000], {"model": "ssrsc", "zero_diagonal": True}),
    )
    constants = {name: getattr(simplexsc.solvers, name, None) for name in SOLVER_CONSTANTS}
    to_tolerance = {}
    for key, points, settings in tolerance_solves:
        tol_cfg = SolverConfig(**settings, **TO_TOLERANCE)
        threads, (jumped, result) = with_helper_threads(
            lambda: with_jump(simplexsc.solvers, tol_cfg.model, lambda: solve(points, tol_cfg))
        )
        times = [seconds(lambda: solve(points, tol_cfg)) for _ in range(REPEATS)]
        best_s, median_s = best_and_median(times)
        z = result.coefficients
        z = z.toarray() if hasattr(z, "toarray") else z
        if tol_cfg.model == "ssrsc":
            certificate = checks.simplex_gap(points, z, tol_cfg.lam, tol_cfg.s, tol_cfg.zero_diagonal)
        elif tol_cfg.model == "slsr":
            certificate = checks.hyperplane_suboptimality(points, z, tol_cfg.lam, tol_cfg.s)
        else:
            certificate = checks.nonneg_residual(points, z, tol_cfg.lam)
        to_tolerance[key] = {
            "n": points.shape[1],
            "d": points.shape[0],
            "solver": {**settings, **TO_TOLERANCE, **constants},
            "iterations": result.iterations_used,
            "jump_after_iteration": jumped,
            "certificate": certificate,
            "helper_threads": threads,
            "best_s": best_s,
            "median_s": median_s,
            "ms_per_iteration": best_s / result.iterations_used * 1e3 if result.iterations_used else None,
            "output_sha256": solve_digest(result),
        }
        print(
            f"{args.label} {key} N={points.shape[1]}: {result.iterations_used} iterations (jump after {jumped}), "
            f"certificate {certificate:.2g}, best {best_s * 1e3:.0f} ms, {threads} helper threads"
        )

    shapes = {}
    with single_blas_thread():
        for name, n, k, count, first_seed in KMEANS_SHAPES:
            inputs = [(blobs(n, k, seed), seed) for seed in range(first_seed, first_seed + count)]
            digest = hashlib.sha256()
            for points, seed in inputs:
                labels, objective = kmeans(points, k, seed=seed)
                digest.update(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
                digest.update(np.float64(objective).tobytes())
            per_call = [seconds(lambda: [kmeans(p, k, seed=s) for p, s in inputs]) / count for _ in range(REPEATS)]
            best_s, median_s = best_and_median(per_call)
            shapes[name] = {
                "n": n,
                "k": k,
                "inputs": count,
                "best_s_per_call": best_s,
                "median_s_per_call": median_s,
                "output_sha256": digest.hexdigest(),
            }
            print(f"{args.label} k-means {name}: best {best_s * 1e3:.2f} ms per call")

    grids = {}
    for name, spec, seeds, lambdas in GRID_SHAPES:
        inputs = [
            (generate_synthetic(SyntheticSpec(*spec, seed=seed)), SpectralConfig(spec[2], affinity_mode="abs", seed=seed))
            for seed in seeds
        ]
        grid = [SolverConfig(model=model, lam=lam) for model in MODELS for lam in lambdas]
        grids[name] = {"n": spec[2] * spec[3], "d": spec[0], "datasets": len(inputs), "cells": len(grid)}
        for workers in GRID_WORKERS:

            def calls():
                return [run_ablation(dataset, grid, spectral, workers=workers) for dataset, spectral in inputs]

            digest = rows_digest(calls())
            per_call = [seconds(calls) / len(inputs) for _ in range(REPEATS)]
            best_s, median_s = best_and_median(per_call)
            grids[name][f"workers_{workers}"] = {
                "best_s_per_call": best_s,
                "median_s_per_call": median_s,
                "rows_sha256": digest,
            }
            print(f"{args.label} grid {name} on {workers} workers: best {best_s * 1e3:.1f} ms per call")

    solver = {"model": cfg.model, "max_iters": cfg.max_iters, "lam": cfg.lam, "rho": cfg.rho}
    write("admm", args.label, {**common, "solver": solver, "sizes": solves, **to_tolerance})
    write("pipeline", args.label, {**common, "solver": solver, "affinity": "sym", "sizes": pipelines, "grid": grids})
    write("kmeans", args.label, {**common, "shapes": shapes})


if __name__ == "__main__":
    main()
