import os
from pathlib import Path

# pyproject's ``pythonpath = ["src"]`` reaches only this interpreter; the
# CLI tests start child interpreters, which import the package from here.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and p != SRC]
)
