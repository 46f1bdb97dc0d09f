"""Set up one workload's inputs in a fresh interpreter, then print "ready".

``run.py`` starts this script several times and times each start until the
"ready" line, which gives ``setup_s``: interpreter start, ``import
simplexsc``, data generation and, for ``large-default``, the CSV write.
"""

import argparse
import sys
from pathlib import Path

import library


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    library.import_simplexsc()
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[args.workload](args.seed, args.workdir).setup()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
