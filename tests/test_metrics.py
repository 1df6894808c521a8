import csv

import numpy as np
import pytest

from fedsign.errors import ConfigError
from fedsign.manifest import parse_manifest
from fedsign.metrics import (
    _summary_from_rows,
    derive_seeds,
    false_positive_analysis,
    fidelity_sweep,
    reliability_sweep,
    robustness_sweep,
    summarize_csv,
    trigger_reliability_sweep,
    write_raw_csv,
)
from fedsign.runner import run_once

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


# ---------------------------------------------------------------------------
# false positive math

def pascal_tail(n, eps):
    """Independent oracle: binomial tail via Pascal's triangle."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return sum(row[: min(eps, n) + 1]) / 2 ** n


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
    rows = [(1.0, 0, 0.5), (1.0, 1, 0.7), (2.0, 0, 0.9), (2.0, 1, 0.9)]
    path = tmp_path / "raw.csv"
    write_raw_csv(rows, path)
    points = summarize_csv(path)
    assert [p[0] for p in points] == [1.0, 2.0]
    by_axis = {1.0: [0.5, 0.7], 2.0: [0.9, 0.9]}
    for value, mean, std in points:
        assert mean == pytest.approx(np.mean(by_axis[value]), abs=0)
        assert std == pytest.approx(np.std(by_axis[value]), abs=0)


def test_in_memory_summary_equals_file_summary(tmp_path):
    rows = [(2.5, 0, 1 / 3), (1, 0, 0.1), (2.5, 1, 2 / 3), (1, 1, 0.2),
            (0, 3, 0.7), (2.5, 2, 1e-17)]
    in_memory = _summary_from_rows(rows, "bits", "eta", 3)
    from_file = _summary_from_rows(rows, "bits", "eta", 3, out_dir=tmp_path, name="s")
    assert repr(in_memory.points) == repr(from_file.points)
    assert in_memory == from_file
    assert [p[0] for p in in_memory.points] == [0.0, 1.0, 2.5]
    assert sorted(f.name for f in tmp_path.iterdir()) == ["s_raw.csv", "s_summary.csv"]


def test_raw_csv_layout(tmp_path):
    path = tmp_path / "raw.csv"
    write_raw_csv([(4, 17, 0.25)], path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["axis", "seed", "metric"]
    assert rows[1] == ["4.0", "17", "0.25"]


def test_derive_seeds_deterministic():
    assert derive_seeds(3, 4) == derive_seeds(3, 4)
    assert derive_seeds(3, 4) != derive_seeds(4, 4)


# ---------------------------------------------------------------------------
# sweeps at smoke scale

def test_fidelity_sweep_baseline_matches_plain_run(tmp_path):
    base = tiny_base("embed.0 = mode=scale bits=4 beta=1.0\n")
    seeds = [11, 12]
    summary = fidelity_sweep(base, values=[4], seeds=seeds, axis="bits",
                             out_dir=str(tmp_path))
    assert [p[0] for p in summary.points] == [0.0, 4.0]
    # the zero-payload point is exactly plain FedAvg under the same seeds
    from dataclasses import replace
    plain = [run_once(replace(base, embed={}), s).final_accuracy for s in seeds]
    value, mean, _ = summary.points[0]
    assert value == 0.0 and mean == pytest.approx(np.mean(plain), abs=0)
    raw = (tmp_path / "fidelity_bits_raw.csv").read_text().strip().split("\n")
    assert len(raw) == 1 + 2 * len(seeds)  # header + (baseline + one point) x seeds


def test_reliability_sweep_marks_capacity(tmp_path):
    base = tiny_base()
    summary = reliability_sweep(base, bit_lengths=[4], n_w=2, seeds=[3],
                                out_dir=str(tmp_path))
    assert summary.capacity_mark == 32
    assert len(summary.points) == 1
    assert 0.0 <= summary.points[0][1] <= 1.0
    assert (tmp_path / "reliability_bits_summary.csv").exists()


def test_trigger_reliability_sweep_rows(tmp_path):
    base = tiny_base()
    summary = trigger_reliability_sweep(base, trigger_counts=[5], n_b=2,
                                        seeds=[3, 4], out_dir=str(tmp_path))
    assert summary.metric == "trigger_detection"
    assert len(summary.points) == 1


def test_robustness_sweep_emits_all_metrics(tmp_path):
    base = tiny_base("embed.0 = mode=scale bits=4 beta=1.0 triggers=3 alpha=0.5\n")
    out = robustness_sweep(base, "dp_sigma", values=[0.0, 0.01], seeds=[3],
                           out_dir=str(tmp_path))
    assert set(out) == {"accuracy", "eta", "trigger_detection"}
    assert all(len(s.points) == 2 for s in out.values())


def test_robustness_sweep_validates():
    with pytest.raises(ConfigError):
        robustness_sweep(tiny_base(), "dp_sigma", values=[0.0], seeds=[1])
    base = tiny_base("embed.0 = mode=scale bits=4 beta=1.0\n")
    with pytest.raises(ConfigError):
        robustness_sweep(base, "learning_rate", values=[0.0], seeds=[1])


def test_sweep_reproducible(tmp_path):
    base = tiny_base()
    a = reliability_sweep(base, [4], n_w=1, seeds=[9], out_dir=str(tmp_path / "a"))
    b = reliability_sweep(base, [4], n_w=1, seeds=[9], out_dir=str(tmp_path / "b"))
    assert a.points == b.points
    assert (tmp_path / "a" / "reliability_bits_raw.csv").read_bytes() == \
           (tmp_path / "b" / "reliability_bits_raw.csv").read_bytes()
