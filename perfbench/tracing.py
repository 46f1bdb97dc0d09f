"""Spans around the library's public names, and the per-layer metrics derived from them.

The library looks its collaborators up by module attribute at call time
(``simplexsc.solvers.precompute_kernel``, ``simplexsc.spectral.kmeans`` and
so on). The tracer swaps those attributes for wrappers that record a span
(name, start, end, parent span, thread) and restores the originals when its
``installed`` block ends. Nothing inside the library changes, and rounds run
without the tracer pay nothing for it.
"""

from __future__ import annotations

import ctypes
import importlib
import itertools
import statistics
import threading
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# (module, attribute the library calls through, span name). A caller module
# that imported a name keeps its own binding, so each binding is wrapped.
TARGETS = (
    ("simplexsc.dataio", "generate_synthetic", "dataio.generate"),
    ("simplexsc.cli", "run_pipeline", "cli.run_pipeline"),
    ("simplexsc.cli", "load_csv", "dataio.load_csv"),
    ("simplexsc.cli", "pca_project", "dataio.pca"),
    ("simplexsc.cli", "solve", "solvers.solve"),
    ("simplexsc.cli", "build_affinity", "spectral.build_affinity"),
    ("simplexsc.cli", "spectral_cluster", "spectral.spectral_cluster"),
    ("simplexsc.cli", "clustering_error", "evaluate.clustering_error"),
    ("simplexsc.evaluate", "run_ablation", "evaluate.run_ablation"),
    ("simplexsc.evaluate", "solve", "solvers.solve"),
    ("simplexsc.evaluate", "build_affinity", "spectral.build_affinity"),
    ("simplexsc.evaluate", "spectral_cluster", "spectral.spectral_cluster"),
    ("simplexsc.evaluate", "clustering_error", "evaluate.clustering_error"),
    ("simplexsc.solvers", "solve", "solvers.solve"),
    ("simplexsc.solvers", "precompute_kernel", "solvers.precompute_kernel"),
    ("simplexsc.solvers", "project_columns_scaled_simplex", "projections.columns_scaled_simplex"),
    ("simplexsc.solvers", "project_columns_scaled_affine", "projections.columns_scaled_affine"),
    ("simplexsc.solvers", "project_nonneg", "projections.nonneg"),
    ("simplexsc.solvers", "project_scaled_simplex", "projections.scaled_simplex"),
    ("simplexsc.solvers", "frobenius_distance", "core.frobenius_distance"),
    ("simplexsc.spectral", "symmetric_eigendecomposition", "spectral.symmetric_eigendecomposition"),
    ("simplexsc.spectral", "kmeans", "spectral.kmeans"),
)

# Spans whose peak allocation a memory round reads from tracemalloc.
MEMORY_SPANS = ("solvers.solve", "spectral.spectral_cluster")

# Every per-layer metric with its unit, in output order.
LAYER_UNITS = {
    "dataio.generate_s": "s",
    "dataio.load_csv_s": "s",
    "dataio.pca_s": "s",
    "solvers.kernel_s": "s",
    "solvers.cstep_s": "s",
    "solvers.admm_iterations": "count",
    "solvers.iteration_ms": "ms",
    "solvers.peak_alloc_mb": "MB",
    "projections.zstep_s": "s",
    "projections.columns": "count",
    "core.residual_s": "s",
    "spectral.affinity_s": "s",
    "spectral.laplacian_s": "s",
    "spectral.eigensolve_s": "s",
    "spectral.kmeans_s": "s",
    "spectral.peak_alloc_mb": "MB",
    "evaluate.cell_ms": "ms",
    "evaluate.cell_concurrency": "ratio",
    "evaluate.error_s": "s",
    "cli.pipeline_self_s": "s",
    "cli.document_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Reported in place of a metric whose layer never ran (or was not measured)
# in the workload; no real measurement of these metrics is negative.
MISSING = -1.0


def _columns(args, kwargs, result) -> dict:
    shape = getattr(args[0], "shape", ())
    return {"columns": shape[1] if len(shape) == 2 else 1}


def _iterations(args, kwargs, result) -> dict:
    return {"iterations": len(result.residual_history)}


def _cells(args, kwargs, result) -> dict:
    return {"cell_seconds": [row.wall_time_seconds for row in result.rows]}


def _document(args, kwargs, result) -> dict:
    output = args[0].output
    return {"document_bytes": output.stat().st_size} if output is not None else {}


# Facts read from a call's arguments or result and kept on its span.
ATTRIBUTES = {
    "projections.columns_scaled_simplex": _columns,
    "projections.columns_scaled_affine": _columns,
    "projections.nonneg": _columns,
    "projections.scaled_simplex": _columns,
    "solvers.solve": _iterations,
    "evaluate.run_ablation": _cells,
    "cli.run_pipeline": _document,
}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``memory=True`` also reads tracemalloc peaks.

    The peaks assume tracked spans neither nest nor overlap in time, which
    holds for the single-threaded pipeline that memory rounds run.

    A span's parent is the innermost open span of its own thread or, for a
    thread with none open (the ablation grid's workers), the current root.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.root: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields the span's attribute dict."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        attrs: dict = {}
        stack.append(sid)
        tracked = self.memory and name in MEMORY_SPANS
        if tracked:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        start = perf_counter()
        try:
            yield attrs
        finally:
            end = perf_counter()
            stack.pop()
            if tracked:
                attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), attrs))

    @contextmanager
    def root_span(self, name: str):
        """A span that also parents spans opened by threads with no span of their own."""
        with self.span(name) as attrs:
            self.root = self._stack()[-1]
            try:
                yield attrs
            finally:
                self.root = None

    def wrap(self, name: str, function):
        describe = ATTRIBUTES.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = function(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, only: tuple[str, ...] | None = None):
        """Wrap every target (or the targets whose span name is in ``only``) for the block.

        A target whose module no longer has the attribute is skipped; its
        metric then reads as missing.
        """
        replaced = []
        try:
            for module_name, attribute, name in TARGETS:
                module = importlib.import_module(module_name)
                if (only is not None and name not in only) or not hasattr(module, attribute):
                    continue
                original = getattr(module, attribute)
                setattr(module, attribute, self.wrap(name, original))
                replaced.append((module, attribute, original))
            if self.memory:
                tracemalloc.start()
            yield self
        finally:
            if self.memory:
                tracemalloc.stop()
            for module, attribute, original in reversed(replaced):
                setattr(module, attribute, original)


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.sid] = span.seconds - covered
    return result


def layer_metrics(
    setup_spans: list[Span],
    round_spans: list[Span],
    memory_spans: list[Span],
    traced_seconds: list[float],
    plain_seconds: list[float],
) -> dict[str, float]:
    """Derive every per-layer metric; per-round values average over the traced rounds.

    A metric whose spans never occurred reads ``MISSING``, never 0.
    """
    rounds = len(traced_seconds)
    own = self_seconds(round_spans)
    by_name: dict[str, list[Span]] = {}
    for span in round_spans:
        by_name.setdefault(span.name, []).append(span)

    def per_round_self(*names: str) -> float:
        spans = [s for n in names for s in by_name.get(n, ())]
        return sum(own[s.sid] for s in spans) / rounds if spans else MISSING

    def per_round_attr(key: str, *names: str) -> float:
        spans = [s for n in names for s in by_name.get(n, ()) if key in s.attrs]
        return sum(s.attrs[key] for s in spans) / rounds if spans else MISSING

    def peak_mb(name: str) -> float:
        peaks = [s.attrs["peak_bytes"] for s in memory_spans if s.name == name]
        return max(peaks) / 1e6 if peaks else MISSING

    projections = [n for n in by_name if n.startswith("projections.")]
    admm = [s for s in by_name.get("solvers.solve", ()) if s.attrs.get("iterations")]
    iterations = sum(s.attrs["iterations"] for s in admm)
    kernel = sum(s.seconds for s in by_name.get("solvers.precompute_kernel", ()))
    cells = [t for s in by_name.get("evaluate.run_ablation", ()) for t in s.attrs["cell_seconds"]]
    grids = sum(s.seconds for s in by_name.get("evaluate.run_ablation", ()))
    generate = [s.seconds for s in setup_spans if s.name == "dataio.generate"]

    metrics = {
        "dataio.generate_s": sum(generate) if generate else MISSING,
        "dataio.load_csv_s": per_round_self("dataio.load_csv"),
        "dataio.pca_s": per_round_self("dataio.pca"),
        "solvers.kernel_s": per_round_self("solvers.precompute_kernel"),
        "solvers.cstep_s": per_round_self("solvers.solve"),
        "solvers.admm_iterations": iterations / rounds if admm else MISSING,
        "solvers.iteration_ms": (
            1e3 * (sum(s.seconds for s in admm) - kernel) / iterations if admm else MISSING
        ),
        "solvers.peak_alloc_mb": peak_mb("solvers.solve"),
        "projections.zstep_s": per_round_self(*projections),
        "projections.columns": per_round_attr("columns", *projections),
        "core.residual_s": per_round_self("core.frobenius_distance"),
        "spectral.affinity_s": per_round_self("spectral.build_affinity"),
        "spectral.laplacian_s": per_round_self("spectral.spectral_cluster"),
        "spectral.eigensolve_s": per_round_self("spectral.symmetric_eigendecomposition"),
        "spectral.kmeans_s": per_round_self("spectral.kmeans"),
        "spectral.peak_alloc_mb": peak_mb("spectral.spectral_cluster"),
        "evaluate.cell_ms": 1e3 * statistics.median(cells) if cells else MISSING,
        "evaluate.cell_concurrency": sum(cells) / grids if cells else MISSING,
        "evaluate.error_s": per_round_self("evaluate.clustering_error"),
        "cli.pipeline_self_s": per_round_self("cli.run_pipeline"),
        "cli.document_bytes": per_round_attr("document_bytes", "cli.run_pipeline"),
        "trace.overhead_s": statistics.median(traced_seconds) - statistics.median(plain_seconds),
    }
    assert metrics.keys() == LAYER_UNITS.keys()
    return metrics


def blas_info() -> dict:
    """The BLAS that numpy loaded and its thread count, read without changing it."""
    import numpy

    info = {"library": "unknown", "threads": None}
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            return {"library": config().decode(), "threads": threads()}
    return info
