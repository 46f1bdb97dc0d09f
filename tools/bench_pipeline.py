"""Time the stages of the default ssrsc pipeline at four sizes and record them in a BENCH file.

Run from the root of a checkout:

    python tools/bench_pipeline.py [--src DIR] [--label NAME]

The inputs are those of ``tools/bench_admm.py`` (N = 400, 1024, 1500 and
3000, seed 1), each clustered into its number of subspaces. One pipeline is
``solve`` with ``SolverConfig()`` (ssrsc, 5 iterations), ``build_affinity``
("sym") and ``spectral_cluster`` with ``SpectralConfig(k, seed=1)``. Each
stage is timed best of 5 on one BLAS thread; k-means is timed inside the
spectral stage by wrapping ``simplexsc.spectral.kmeans``, which the stage
looks up at call time. One more pipeline runs under tracemalloc for the peak
allocation of the solve and of the spectral stage (each from a reset peak).

The results go under ``runs[NAME]`` of ``BENCH_pipeline.json`` at the root of
this checkout, with the core count, the BLAS thread count, the helper threads
a solve started, the share of nonzero entries in Z and in the affinity, and
a SHA-256 digest of the labels, so two labels can be checked for the same
clustering. ``--src`` imports simplexsc from another checkout's ``src``
directory, for example a copy of the parent commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

from bench_admm import REPEATS, SIZES, helper_threads  # also sets the BLAS thread default

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / "BENCH_pipeline.json"


def density(m) -> float:
    nonzero = m.nnz if hasattr(m, "nnz") else np.count_nonzero(m)
    return nonzero / (m.shape[0] * m.shape[1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory that holds simplexsc")
    parser.add_argument("--label", default="current", help="key of this run in the output file")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import simplexsc.spectral
    from simplexsc import SolverConfig, SpectralConfig, SyntheticSpec, generate_synthetic, pca_project
    from simplexsc import build_affinity, solve, spectral_cluster
    from simplexsc.blas import controllable_openblas, single_blas_thread

    with single_blas_thread():
        blas_threads = sorted({lib.get_num_threads() for lib in controllable_openblas()})
    kmeans = simplexsc.spectral.kmeans
    kmeans_seconds: list[float] = []

    def timed_kmeans(*call_args, **kwargs):
        start = perf_counter()
        try:
            return kmeans(*call_args, **kwargs)
        finally:
            kmeans_seconds.append(perf_counter() - start)

    cfg = SolverConfig()
    sizes = {}
    simplexsc.spectral.kmeans = timed_kmeans
    try:
        for n, spec, pca_dim in SIZES:
            x = generate_synthetic(SyntheticSpec(*spec, 0.01, seed=1)).data
            if pca_dim is not None:
                x = pca_project(x, pca_dim)
            assert x.shape[1] == n
            spectral_cfg = SpectralConfig(n_clusters=spec[2], seed=1)
            threads = helper_threads(lambda: solve(x, cfg))
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
            sizes[str(n)] = {
                "d": x.shape[0],
                "helper_threads": threads,
                "z_density": density(z),
                "affinity_density": density(affinity),
                "affinity_type": type(affinity).__name__,
                "best_s": {stage: min(values) for stage, values in times.items()},
                "median_s": {stage: sorted(values)[REPEATS // 2] for stage, values in times.items()},
                "solve_peak_mb": solve_peak / 1e6,
                "spectral_peak_mb": spectral_peak / 1e6,
                "labels_sha256": hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes()).hexdigest(),
            }
            best = sizes[str(n)]["best_s"]
            print(
                f"{args.label} N={n}: solve {best['solve'] * 1e3:.1f} ms, affinity "
                f"{best['affinity'] * 1e3:.1f} ms, spectral {best['spectral'] * 1e3:.1f} ms "
                f"(k-means {best['kmeans'] * 1e3:.1f} ms), {threads} helper threads"
            )
    finally:
        simplexsc.spectral.kmeans = kmeans
    record = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    record.setdefault("runs", {})[args.label] = {
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "repeats": REPEATS,
        "solver": {"model": cfg.model, "max_iters": cfg.max_iters, "lam": cfg.lam, "rho": cfg.rho},
        "affinity": "sym",
        "sizes": sizes,
    }
    OUTPUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
