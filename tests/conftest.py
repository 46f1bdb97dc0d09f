import os
import sys
from pathlib import Path

import pytest

# pyproject's ``pythonpath = ["src"]`` reaches only this interpreter; the
# CLI tests start child interpreters, which import the package from here.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and p != SRC]
)


@pytest.fixture(autouse=True)
def _grid_pool_per_test():
    """Shut run_ablation's kept worker pool down after the test that made it.

    Its workers are forked copies of this process, so a pool made under one
    test's monkeypatches must not serve the next test.
    """
    yield
    evaluate = sys.modules.get("simplexsc.evaluate")
    if evaluate is not None:
        evaluate._shutdown_pool()
