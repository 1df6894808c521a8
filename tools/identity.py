"""Identity record: train and attack `manifests/demo.manifest` and each
workload recipe of `sessionbench/workloads.py` at seed 1, then print one
``sha256[:12] path`` line per artifact, sorted by path.

    python3 tools/identity.py OUT

Each run writes into `OUT/<name>/`, with its manifest beside it as
`OUT/<name>.manifest`.  The checkout's own `src/` is imported, with one BLAS
thread.  Two checkouts wrote the same artifacts if `diff` finds no
difference between their records.
"""

import os
import sys

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import contextlib
import hashlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "sessionbench")]

from fedsign.cli import main as cli_main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def manifests(out):
    """(name, manifest text) for the demo and for every workload at SEED."""
    demo = (ROOT / "manifests" / "demo.manifest").read_text().splitlines()
    yield "demo", "\n".join(line for line in demo if not line.startswith("out_dir")) + (
        f"\nout_dir = {out / 'demo'}\n")
    for name, workload in sorted(WORKLOADS.items()):
        yield name, workload.manifest(SEED, out / name)


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    for name, text in manifests(out):
        path = out / f"{name}.manifest"
        path.write_text(text)
        for command in ("train", "attack"):
            with contextlib.redirect_stdout(sys.stderr):  # stdout is the record
                code = cli_main([command, str(path)])
            if code != 0:
                print(f"{name}: {command} exited {code}", file=sys.stderr)
                return code
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.parent != out):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
        print(f"{digest} {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
