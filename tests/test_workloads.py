"""The benchmark's workload recipes (sessionbench/workloads.py) are
fedsign manifests, so a change to manifest validation must fail here and
not only in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from fedsign.manifest import parse_manifest

WORKLOADS = Path(__file__).resolve().parent.parent / "sessionbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("sessionbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(load_workloads().WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_workload_manifest_parses(name, seed, tmp_path):
    workload = load_workloads().WORKLOADS[name]
    m = parse_manifest(workload.manifest(seed, tmp_path / name))
    assert (m.seed, m.attack_seed, m.fed.rounds) == (seed, seed, workload.rounds)
    assert m.out_dir == str(tmp_path / name)
