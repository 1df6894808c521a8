from dataclasses import replace

import numpy as np
import pytest

from fedsign.errors import ConfigError
from fedsign.manifest import parse_manifest
from fedsign.metrics import derive_seeds, false_positive_analysis, run_sweep, summarize_csv, write_raw_csv
from fedsign.runner import run_once

from conftest import pascal_tail

TINY = """
classes = 3
per_class = 40
test_per_class = 20
clients = 2
rounds = 4
seed = 5
"""


def tiny_base(extra=""):
    return parse_manifest(TINY + extra)


def sweep_base(out_dir, kind, values, embed):
    """The tiny manifest with one sweep and `embed` lines, writing to out_dir."""
    return tiny_base(f"out_dir = {out_dir}\nsweep.kind = {kind}\nsweep.values = {values}\n"
                     + embed)


FEATURE = "mode=scale bits=4 beta=1.0"


# ---------------------------------------------------------------------------
# false positive math

def test_false_positive_closed_forms():
    assert false_positive_analysis(8, 0) == 1 / 256
    assert false_positive_analysis(32, 1) == 33 / 2 ** 32
    assert false_positive_analysis(12, 12) == 1.0
    assert false_positive_analysis(12, 40) == 1.0  # radius clamps at N


def test_false_positive_matches_pascal_oracle():
    for n in range(1, 13):
        for eps in range(n + 1):
            assert false_positive_analysis(n, eps) == pascal_tail(n, eps)


def test_false_positive_validates():
    with pytest.raises(ConfigError):
        false_positive_analysis(0, 0)


# ---------------------------------------------------------------------------
# csv aggregation

def test_summary_is_recomputed_from_raw_rows(tmp_path):
    rows = [(2.5, 0, 1 / 3), (1, 0, 0.1), (2.5, 1, 2 / 3), (1, 1, 0.2),
            (0, 3, 0.7), (2.5, 2, 1e-17)]
    path = tmp_path / "raw.csv"
    write_raw_csv(rows, path)
    points = summarize_csv(path)
    assert [p[0] for p in points] == [0.0, 1.0, 2.5]  # mixed int/float axes, sorted
    by_axis = {0.0: [0.7], 1.0: [0.1, 0.2], 2.5: [1 / 3, 2 / 3, 1e-17]}
    for value, mean, std in points:  # exact: every metric, 1e-17 too, survives the CSV
        assert mean == pytest.approx(np.mean(by_axis[value]), abs=0)
        assert std == pytest.approx(np.std(by_axis[value]), abs=0)


def test_raw_csv_layout(tmp_path):
    path = tmp_path / "raw.csv"
    write_raw_csv([(4, 17, 0.25)], path)
    assert path.read_bytes() == b"axis,seed,metric\n4.0,17,0.25\n"


def test_derive_seeds_deterministic():
    assert derive_seeds(3, 4) == derive_seeds(3, 4)
    assert derive_seeds(3, 4) != derive_seeds(4, 4)


# ---------------------------------------------------------------------------
# sweeps at smoke scale

def test_fidelity_sweep_baseline_matches_plain_run(tmp_path):
    base = sweep_base(tmp_path, "fidelity_bits", "4", f"embed.0 = {FEATURE}\n")
    seeds = [11, 12]
    summary, = run_sweep(base, seeds)
    assert [p[0] for p in summary.points] == [0.0, 4.0]
    # the zero-payload point is exactly plain FedAvg under the same seeds
    plain = [run_once(replace(base, embed={}), s).final_accuracy for s in seeds]
    value, mean, _ = summary.points[0]
    assert value == 0.0 and mean == pytest.approx(np.mean(plain), abs=0)
    raw = (tmp_path / "fidelity_bits_raw.csv").read_text().strip().split("\n")
    assert len(raw) == 1 + 2 * len(seeds)  # header + (baseline + one point) x seeds


def test_reliability_sweep_marks_capacity(tmp_path):
    base = sweep_base(tmp_path, "reliability_bits", "4",
                      f"embed.0 = {FEATURE}\nembed.1 = {FEATURE}\n")
    summary, = run_sweep(base, [3])
    assert summary.capacity_mark == 32
    assert len(summary.points) == 1
    assert 0.0 <= summary.points[0][1] <= 1.0
    assert sorted(f.name for f in tmp_path.iterdir()) == ["reliability_bits_raw.csv",
                                                          "reliability_bits_summary.csv"]


def test_trigger_reliability_sweep_rows(tmp_path):
    base = sweep_base(tmp_path, "reliability_triggers", "5",
                      f"embed.0 = {FEATURE}\nembed.1 = {FEATURE}\n")
    summary, = run_sweep(base, [3, 4])
    assert summary.metric == "trigger_detection"
    assert len(summary.points) == 1


def test_robustness_sweep_emits_all_metrics(tmp_path):
    base = sweep_base(tmp_path, "dp_sigma", "0.0,0.01",
                      f"embed.0 = {FEATURE} triggers=3 alpha=0.5\n")
    out = run_sweep(base, [3])
    assert [s.metric for s in out] == ["accuracy", "eta", "trigger_detection"]
    assert all(len(s.points) == 2 for s in out)


def test_robustness_sweep_validates(tmp_path):
    with pytest.raises(ConfigError, match="sweep.kind"):
        run_sweep(sweep_base(tmp_path / "out", "dp_sigma", "0.0", ""), [1])
    base = sweep_base(tmp_path / "out", "dp_sigma", "0.0", f"embed.0 = {FEATURE}\n")
    with pytest.raises(ConfigError, match="sweep.kind"):
        run_sweep(replace(base, sweep_kind="learning_rate"), [1])
    assert not (tmp_path / "out").exists()


def test_sweep_reproducible(tmp_path):
    base = sweep_base(tmp_path, "reliability_bits", "4", f"embed.0 = {FEATURE}\n")
    a, = run_sweep(replace(base, out_dir=str(tmp_path / "a")), [9])
    b, = run_sweep(replace(base, out_dir=str(tmp_path / "b")), [9])
    assert a.points == b.points
    assert (tmp_path / "a" / "reliability_bits_raw.csv").read_bytes() == \
           (tmp_path / "b" / "reliability_bits_raw.csv").read_bytes()
