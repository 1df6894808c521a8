"""Benchmark of one fedsign user session, end to end or layer by layer.

    python3 sessionbench/run.py --workload mlp-demo --seed 1 --seconds 5 --trace 0

Run from the root of a checkout: it imports fedsign from `src/` there and
nowhere else, and writes only under `runs/sessionbench/`.  With
`--trace 0` it times the session untraced and prints the end-to-end
metrics; with `--trace 1` it runs the same session with spans around
fedsign's public functions and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Workloads are in `workloads.py`.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the repeated verify/feasibility calls run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "fedsign" / "__init__.py").is_file():
        print(f"error: no fedsign sources in {SRC}", file=sys.stderr)
        return 2
    # BLAS reads these when numpy is first imported, below.  One thread: a
    # second one made `feasibility`, the heaviest BLAS user, at most 3%
    # faster, and left every timing exposed to whatever else runs on the
    # other CPU.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import session

    result = session.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
