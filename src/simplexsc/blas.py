"""Run BLAS calls on one thread, so that results do not depend on the thread count.

Multi-threaded OpenBLAS splits GEMM, SYRK and dot products among its threads,
and the split changes the order in which partial sums are added: the same
product differs in its last bits between 1 and 2 threads. The pipeline, the
solvers and spectral clustering therefore run inside ``single_blas_thread``,
and take their parallelism from threads of their own, each of which calls
the one-thread BLAS on whole products: the ADMM row blocks of solves with
N >= 1024. The ablation grid's worker processes pin their own BLAS the same
way.

The OpenBLAS builds that the Linux numpy and scipy wheels bundle (in
``numpy.libs`` and ``scipy.libs``) are controlled through their own
``scipy_openblas_{get,set}_num_threads`` entry points. The thread count is
process-wide (``openblas_set_num_threads_local`` is not thread-local in these
builds), so the pin is reference-counted: the first caller to enter saves and
pins the counts, and the last one to leave restores them.
"""

from __future__ import annotations

import ctypes
import os
import threading
import warnings
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  loads scipy's OpenBLAS before the search below

# (getter, setter) names exported by numpy's 64-bit-index build and scipy's build.
_ENTRY_POINTS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@dataclass(frozen=True)
class OpenBlas:
    """The thread-count controls of one loaded OpenBLAS library."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


@cache
def controllable_openblas() -> tuple[OpenBlas, ...]:
    """Every loaded OpenBLAS whose thread count this module can set."""
    found = []
    for package in (np, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            except OSError:  # present on disk but not loaded: nothing to pin
                continue
            for get_name, set_name in _ENTRY_POINTS:
                getter = getattr(lib, get_name, None)
                setter = getattr(lib, set_name, None)
                if getter is not None and setter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    found.append(OpenBlas(getter, setter))
                    break
    return tuple(found)


class _ThreadPin:
    """Process-wide pin count; the BLAS thread count it guards is process-wide too."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list[tuple[OpenBlas, int]] = []

    def enter(self) -> None:
        with self._lock:
            if self._depth == 0:
                libs = controllable_openblas()
                if not libs:
                    warnings.warn(
                        "no controllable OpenBLAS is loaded: results may differ in "
                        "their last digits with the BLAS thread count",
                        RuntimeWarning,
                    )
                self._saved = [(lib, lib.get_num_threads()) for lib in libs]
                for lib, threads in self._saved:
                    if threads != 1:
                        lib.set_num_threads(1)
            self._depth += 1

    def exit(self) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for lib, threads in self._saved:
                    if threads != 1:
                        lib.set_num_threads(threads)
                self._saved = []


_PIN = _ThreadPin()


@contextmanager
def single_blas_thread():
    """Run the body with every controllable OpenBLAS on one thread.

    Nested and concurrent entries share one pin; the thread counts in force
    before the first entry come back when the last entry exits, also by an
    exception. Warns when no OpenBLAS can be controlled, since results may
    then vary with the thread count.
    """
    _PIN.enter()
    try:
        yield
    finally:
        _PIN.exit()
