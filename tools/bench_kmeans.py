"""Time ``simplexsc.kmeans`` at two fixed shapes and record the result in a BENCH file.

Run from the root of a checkout:

    python tools/bench_kmeans.py [--src DIR] [--label NAME]

Three shapes, each on k unit-normalised Gaussian blobs in k dimensions (the
shape of the row-normalised spectral embedding that kmeans receives) with
fixed seeds:

- N=150, k=3: one cell of the 20-fixture ablation grid, timed over 12 inputs;
- N=3000, k=5: one large-N embedding;
- N=600, k=10, timed over 3 inputs: from 8 columns on numpy sums a row
  pairwise, and kmeans takes another route to keep its bits.

Each shape is timed best of 5 on one BLAS thread (``OPENBLAS_NUM_THREADS=1``
unless set, and inside ``simplexsc.blas.single_blas_thread``). The results go
under ``runs[NAME]`` of ``BENCH_kmeans.json`` at the root of this checkout,
next to the runs of other labels, with the core count, the BLAS thread count
and a SHA-256 digest of every returned label array and objective, so two
labels can be checked for the same output. ``--src`` imports simplexsc from
another checkout's ``src`` directory, for example a copy of the parent commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  after the BLAS thread default

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / "BENCH_kmeans.json"
# (name, N, k, inputs per timing, seed of the first input)
SHAPES = (("grid-cell", 150, 3, 12, 0), ("large", 3000, 5, 1, 100), ("ten-clusters", 600, 10, 3, 200))
REPEATS = 5
NOISE = 0.35


def blobs(n: int, k: int, seed: int) -> np.ndarray:
    """n points in k unit-normalised Gaussian blobs around k random directions."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, k))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    points = centers[rng.integers(0, k, n)] + NOISE * rng.standard_normal((n, k))
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory that holds simplexsc")
    parser.add_argument("--label", default="current", help="key of this run in the output file")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from simplexsc import kmeans
    from simplexsc.blas import controllable_openblas, single_blas_thread

    shapes = {}
    with single_blas_thread():
        blas_threads = sorted({lib.get_num_threads() for lib in controllable_openblas()})
        for name, n, k, count, first_seed in SHAPES:
            inputs = [(blobs(n, k, seed), seed) for seed in range(first_seed, first_seed + count)]
            digest = hashlib.sha256()
            for points, seed in inputs:
                labels, objective = kmeans(points, k, seed=seed)
                digest.update(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
                digest.update(np.float64(objective).tobytes())
            times = []
            for _ in range(REPEATS):
                start = perf_counter()
                for points, seed in inputs:
                    kmeans(points, k, seed=seed)
                times.append((perf_counter() - start) / count)
            shapes[name] = {
                "n": n,
                "k": k,
                "inputs": count,
                "best_s_per_call": min(times),
                "median_s_per_call": sorted(times)[REPEATS // 2],
                "output_sha256": digest.hexdigest(),
            }
    record = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    record.setdefault("runs", {})[args.label] = {
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "repeats": REPEATS,
        "shapes": shapes,
    }
    OUTPUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name, result in shapes.items():
        print(f"{args.label} {name}: best {result['best_s_per_call'] * 1e3:.2f} ms per call")


if __name__ == "__main__":
    main()
