"""The benchmark session (sessionbench/session.py) stacks keys and decides
feasibility with fedsign's names and checks the answers with
sessionbench/checks.py, so a rename or a changed return type that the
session depends on must fail here and not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from fedsign.nn import build_mlp
from fedsign.watermark import keygen, save_key

BENCH = Path(__file__).resolve().parent.parent / "sessionbench"

# selector group -> keygen arguments (client id, bits, mode, offset) of its keys
GROUPS = {
    "scale": [(0, 8, "scale", 0), (1, 8, "scale", 8), (2, 16, "scale", 16)],
    "kernel": [(3, 32, "kernel", None), (4, 32, "kernel", None)],
    "scale-shared-coords": [(0, 8, "scale", 0), (1, 8, "scale", 0)],
}


def load_session():
    """session.py with sessionbench/ first on sys.path, as run.py runs it,
    so that its `import checks` finds sessionbench/checks.py."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("sessionbench_session",
                                                      BENCH / "session.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.mark.parametrize("group, status", [("scale", "feasible"), ("kernel", "feasible"),
                                           ("scale-shared-coords", "infeasible")])
def test_session_checks_agree_with_fedsign_on_saved_keys(group, status, tmp_path):
    session = load_session()
    net = build_mlp(32, [16, 16], 4, seed=0)  # 32 scale channels, 256 kernel entries
    paths = []
    for cid, bits, mode, offset in GROUPS[group]:
        paths.append(str(tmp_path / f"client_{cid}.key"))
        save_key(keygen(net, cid, bits, 0, mode, seed=5, offset=offset), paths[-1])
    ut = session.checks.signed_stack([session.fio.load_keyfile(p) for p in paths])
    stacked = session.stack([session.load_key(p) for p in paths])
    assert np.array_equal(ut, stacked)
    report = session.decide(stacked)
    assert report.status == status == session.checks.lp_status(ut)[0]
    assert session.checks.certificate_holds(ut, report)
