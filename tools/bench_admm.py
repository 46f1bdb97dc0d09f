"""Time the default ssrsc solve at four sizes and record the result in a BENCH file.

Run from the root of a checkout:

    python tools/bench_admm.py [--src DIR] [--label NAME]

Four inputs, each a seeded union-of-subspaces sample (``SyntheticSpec``,
noise 0.01, seed 1), solved by ``simplexsc.solve`` with ``SolverConfig()``
(ssrsc, 5 iterations):

- N=400: 4 subspaces of dimension 4 in 40 dimensions (2 row blocks);
- N=1024: the same with 256 points each (4 row blocks);
- N=1500 and N=3000: 5 subspaces of dimension 6 in 120 dimensions, reduced
  to 60 by ``pca_project`` (6 and 12 row blocks; the second is the input of
  the ``large-default`` pipeline).

Each size is timed best of 5 on one BLAS thread (``OPENBLAS_NUM_THREADS=1``
unless set; the solver pins the BLAS to one thread itself). The results go
under ``runs[NAME]`` of ``BENCH_admm.json`` at the root of this checkout,
next to the runs of other labels, with the core count, the number of helper
threads a solve started and a SHA-256 digest of Z (its dense C-ordered
form, also for the sparse Z of the larger ssrsc solves) and of the residual
history, so two labels can be checked for the same output. ``--src``
imports simplexsc from another checkout's ``src`` directory, for example a
copy of the parent commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
from pathlib import Path
from time import perf_counter

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  after the BLAS thread default

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / "BENCH_admm.json"
# (N, SyntheticSpec arguments, PCA dimension or None)
SIZES = (
    (400, (40, 4, 4, 100), None),
    (1024, (40, 4, 4, 256), None),
    (1500, (120, 6, 5, 300), 60),
    (3000, (120, 6, 5, 600), 60),
)
REPEATS = 5


def helper_threads(call) -> int:
    """Run call() and count the threads it started."""
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    threading.Thread.start = recording
    try:
        call()
    finally:
        threading.Thread.start = start
    return len(started)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory that holds simplexsc")
    parser.add_argument("--label", default="current", help="key of this run in the output file")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from simplexsc import SolverConfig, SyntheticSpec, generate_synthetic, pca_project, solve
    from simplexsc.blas import controllable_openblas, single_blas_thread

    with single_blas_thread():
        blas_threads = sorted({lib.get_num_threads() for lib in controllable_openblas()})
    cfg = SolverConfig()
    sizes = {}
    for n, spec, pca_dim in SIZES:
        x = generate_synthetic(SyntheticSpec(*spec, 0.01, seed=1)).data
        if pca_dim is not None:
            x = pca_project(x, pca_dim)
        assert x.shape[1] == n
        result = solve(x, cfg)
        z = result.coefficients
        z = z.toarray() if hasattr(z, "toarray") else z  # scipy.sparse from SPARSE_EIGEN_MIN_N points on
        digest = hashlib.sha256(np.ascontiguousarray(z).tobytes())
        digest.update(np.asarray(result.residual_history, dtype=np.float64).tobytes())
        threads = helper_threads(lambda: solve(x, cfg))
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            solve(x, cfg)
            times.append(perf_counter() - start)
        sizes[str(n)] = {
            "d": x.shape[0],
            "iterations": result.iterations_used,
            "helper_threads": threads,
            "best_s": min(times),
            "median_s": sorted(times)[REPEATS // 2],
            "output_sha256": digest.hexdigest(),
        }
        print(f"{args.label} N={n}: best {min(times) * 1e3:.1f} ms, {threads} helper threads")
    record = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    record.setdefault("runs", {})[args.label] = {
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "repeats": REPEATS,
        "solver": {"model": cfg.model, "max_iters": cfg.max_iters, "lam": cfg.lam, "rho": cfg.rho},
        "sizes": sizes,
    }
    OUTPUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
