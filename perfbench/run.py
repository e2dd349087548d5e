"""Benchmark entry point for the rca package.

    python3 perfbench/run.py --workload train-c6 --seed 1 --seconds 15 --trace 0

Prints a detail line (machine block, quartiles, failures), then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--out FILE`` also writes the full report there.
"""

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread: the program's matrices are a few rows wide, so BLAS
# threads would only contend with the interpreter thread on a small box.
# Set before numpy is imported, here and in every child interpreter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("train-c6", "train-minibatch", "cli-corpus")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full report (JSON) to this file")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


if __name__ == "__main__":
    args = parse_args()
    if not (SRC / "rca" / "__init__.py").is_file():
        print(f"error: rca sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bench

    sys.exit(bench.main(args))
