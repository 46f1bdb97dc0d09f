"""Benchmark of the simplexsc pipeline, one workload per invocation.

    python3 perfbench/run.py --workload large-default --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it measures the sources in ``src/``.
Rounds run closed loop (each starts when the previous one ends) until
``--seconds`` have passed, then the outputs of every round are checked with
numpy alone. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, measured without tracing;
with ``--trace 1`` they are the per-layer ones, from rounds that alternate
untraced and traced, and the spans go to ``perfbench/work/``. A human summary
goes to standard error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import library
import tracing

BENCH = Path(__file__).resolve().parent
WORK = BENCH / "work"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"op_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

# OpenBLAS threads per workload; None leaves the machine's default. The two
# workloads of many small BLAS calls between Python loops run one: with the
# default two, an idle BLAS thread spins between calls, so losing one core to
# another process doubled a solve's time (against +15% with one thread), and
# two grid workers would run four compute threads on two cores.
BLAS_THREADS = {"large-default": None, "fixture-grid": 1, "solve-to-tol": 1}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["large-default", "fixture-grid", "solve-to-tol"])
    parser.add_argument("--seed", type=int, required=True, help="seed of the workload's inputs (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting rounds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--grid-workers", type=int, default=2,
                        help="fixture-grid threads (default 2); 1 gives the serial baseline")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.grid_workers < 1:
        parser.error("--seed must be >= 0, --seconds > 0 and --grid-workers >= 1")
    return args


def declared_units() -> tuple[dict, dict]:
    """The metric names and units that BENCHMARK.json declares."""
    spec = json.loads((library.CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter until it reports its inputs ready."""
    command = [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    start = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline()
        ready = perf_counter() - start
        probe.stdout.read()
        code = probe.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe exited with code {code} after printing {line!r}")
    return ready


def stash(outputs, path: Path) -> Path:
    """Move a round's outputs to disk until the checks, so that the memory
    they hold does not grow ``peak_rss_mb`` with the number of rounds."""
    with open(path, "wb") as handle:
        pickle.dump(outputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def run_rounds(workload, seconds: float, kinds: tuple[str, ...], tracers: dict, workdir: Path) -> list[dict]:
    """Closed loop: start rounds, cycling through ``kinds``, until ``seconds`` have passed.

    Every kind runs at least once. A traced round runs with its tracer's
    wrappers installed and a root span around it.
    """
    rounds = []
    start = perf_counter()
    for index in itertools.count():
        kind = kinds[index % len(kinds)]
        if index >= len(kinds) and perf_counter() - start >= seconds:
            break
        tracer = tracers.get(kind)
        began = perf_counter()
        if tracer is None:
            outputs, calls = workload.run_round()
        else:
            with tracer.installed(), tracer.root_span("bench.round"):
                outputs, calls = workload.run_round()
        elapsed = perf_counter() - began
        rounds.append({"kind": kind, "seconds": elapsed, "calls": calls, "outputs": stash(outputs, workdir / f"round{index}.pickle")})
        del outputs
    return rounds


def tally(workload, rounds: list[dict]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over the outputs of all rounds."""
    outputs = []
    for r in rounds:
        with open(r["outputs"], "rb") as handle:
            outputs.append(pickle.load(handle))
    outcomes, problems = workload.check(outputs)
    failed = 0
    for outcome in outcomes:
        if outcome.problems and outcome.known_fault is not None:
            failed += 1
        elif outcome.problems:
            problems += [f"{outcome.name}: {p}" for p in outcome.problems]
    attempted = workload.ops_per_round * len(rounds)
    if len(outcomes) != attempted:
        problems.append(f"checked {len(outcomes)} operations of {attempted} attempted")
    return not problems, attempted, failed, problems


def measure_end_to_end(workload, args, workdir: Path) -> tuple[dict, list[dict]]:
    setups = [time_setup(args.workload, args.seed, workdir / f"probe{i}") for i in range(SETUP_PROBES)]
    workload.setup()
    rounds = run_rounds(workload, args.seconds, ("plain",), {}, workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    elapsed = sum(r["seconds"] for r in rounds)
    metrics = {
        "op_s": statistics.median(c for r in rounds for c in r["calls"]),
        "ops_per_s": workload.ops_per_round * len(rounds) / elapsed,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    return metrics, rounds


def measure_layers(workload, args, workdir: Path) -> tuple[dict, list[dict], dict]:
    setup_tracer = tracing.Tracer()
    with setup_tracer.installed(only=("dataio.generate",)):
        workload.setup()
    tracer = tracing.Tracer()
    rounds = run_rounds(workload, args.seconds, ("plain", "traced"), {"traced": tracer}, workdir)
    memory = tracing.Tracer(memory=True)
    if workload.memory_round:
        with memory.installed(only=tracing.MEMORY_SPANS):
            outputs, calls = workload.run_round()
        rounds.append({"kind": "memory", "seconds": None, "calls": calls, "outputs": stash(outputs, workdir / "memory.pickle")})

    def seconds(kind):
        return [r["seconds"] for r in rounds if r["kind"] == kind]

    metrics = tracing.layer_metrics(setup_tracer.spans, tracer.spans, memory.spans, seconds("traced"), seconds("plain"))
    trace = {
        "workload": workload.name,
        "seed": args.seed,
        "cpus": os.cpu_count(),
        "blas": tracing.blas_info(),
        "rounds": [{"kind": r["kind"], "seconds": r["seconds"]} for r in rounds],
        "metrics": metrics,
        "missing": [name for name, value in metrics.items() if value == tracing.MISSING],
        "spans": {
            kind: [vars(s) for s in t.spans]
            for kind, t in (("setup", setup_tracer), ("traced", tracer), ("memory", memory))
        },
    }
    return metrics, rounds, trace


def main(argv=None) -> int:
    args = parse_args(argv)
    if BLAS_THREADS[args.workload] is not None:
        # Read by OpenBLAS when numpy loads it, so it must be set before the
        # first import of numpy; the set-up probes inherit it. A value already
        # in the environment wins, which gives the baselines in the README.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", str(BLAS_THREADS[args.workload]))
    try:
        library.import_simplexsc()
    except library.MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    end_to_end, per_layer = declared_units()
    units = per_layer if args.trace else end_to_end
    ours = tracing.LAYER_UNITS if args.trace else END_TO_END_UNITS
    if units != ours:
        print(f"error: BENCHMARK.json declares {units}, the benchmark reports {ours}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        kind = workloads.WORKLOADS[args.workload]
        options = {"workers": args.grid_workers} if kind is workloads.FixtureGrid else {}
        workload = kind(args.seed, workdir, **options)
        if args.trace:
            metrics, rounds, trace = measure_layers(workload, args, workdir)
        else:
            metrics, rounds = measure_end_to_end(workload, args, workdir)
        correct, attempted, failed, problems = tally(workload, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        trace.update(correct=correct, attempted=attempted, failed=failed, problems=problems)
        path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(trace), encoding="utf-8")
        print(f"spans written to {path}; missing: {trace['missing'] or 'none'}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={[r['kind'] for r in rounds]} "
          f"blas={tracing.blas_info()}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
