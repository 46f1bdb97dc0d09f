"""Import simplexsc from the checkout this benchmark sits in, never from elsewhere.

The benchmark lives in ``<checkout>/perfbench`` and measures the sources in
``<checkout>/src``. An installed copy of the package elsewhere on the path
must not stand in for them, so a checkout without ``src/simplexsc`` is an
error rather than a fallback.
"""

from __future__ import annotations

import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SOURCES = CHECKOUT / "src"


class MissingLibrary(RuntimeError):
    """The checkout holds no simplexsc sources to measure."""


def import_simplexsc():
    """Put the checkout's ``src`` first on ``sys.path`` and import the package from it."""
    init = SOURCES / "simplexsc" / "__init__.py"
    if not init.is_file():
        raise MissingLibrary(f"{init} not found: run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SOURCES))
    import simplexsc

    if Path(simplexsc.__file__).resolve() != init.resolve():
        raise MissingLibrary(f"simplexsc was imported from {simplexsc.__file__}, not from {init}")
    return simplexsc
