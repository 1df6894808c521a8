import numpy as np

from fedsign.manifest import parse_manifest
from fedsign.metrics import run_sweep
from fedsign.runner import run_once

DESK = """
classes = 4
per_class = 250
test_per_class = 250
clients = 8
rounds = 60
seed = 0
"""

# the four embedding clients of the DESK sweeps
EMBED4 = "".join(f"embed.{k} = mode=scale bits=8 beta=3.0\n" for k in range(4))


def test_run_once_deterministic_and_seed_sensitive():
    m = parse_manifest("classes = 3\nper_class = 30\nclients = 2\nrounds = 3\n")
    a = run_once(m, seed=5)
    b = run_once(m, seed=5)
    c = run_once(m, seed=6)
    assert np.array_equal(a.params.vec, b.params.vec)
    assert not np.array_equal(a.params.vec, c.params.vec)


def test_desk_scale_baseline_reaches_90_percent():
    result = run_once(parse_manifest(DESK))
    assert result.final_accuracy >= 0.90


def test_pgd_trigger_pipeline_trains_vanilla_model():
    m = parse_manifest(
        "arch = cnn\ndata_kind = images\nchannels = 4\n"
        "classes = 3\nper_class = 60\nclients = 2\nrounds = 6\n"
        "embed.0 = mode=scale bits=4 beta=1.0 triggers=5 alpha=1.0 trigger_kind=pgd\n")
    result = run_once(m, seed=2)
    key = result.clients[0].key
    assert key.triggers is not None
    assert key.triggers.provenance == "pgd"
    assert key.triggers.eps == 0.3  # attack defaults recorded in the set
    # backdoor training memorizes the forged samples regardless of how well
    # the attack transferred, so detection is well above chance
    assert result.logs[-1].trigger_error[0] <= 0.4


def test_reliability_sweep_within_capacity_hits_one(tmp_path):
    base = parse_manifest(DESK + EMBED4 + f"out_dir = {tmp_path}\n"
                          "sweep.kind = reliability_bits\nsweep.values = 8\n")
    summary, = run_sweep(base, [0, 1])
    assert summary.capacity_mark == 32
    assert summary.points[0][1] == 1.0  # mean eta over seeds


def test_trigger_detection_flat_across_counts(tmp_path):
    base = parse_manifest(DESK + EMBED4 + f"out_dir = {tmp_path}\n"
                          "sweep.kind = reliability_triggers\nsweep.values = 5,12\n")
    summary, = run_sweep(base, [0, 1])
    rates = [mean for _, mean, _ in summary.points]
    assert all(r >= 0.8 for r in rates)
    assert max(rates) - min(rates) <= 0.05
