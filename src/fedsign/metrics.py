"""Experiment sweeps: fidelity, reliability and robustness curves over
derived seeds, all run by one loop, with CSV emission and an independent
summary pass.

Raw sweep CSVs carry one row per (axis value, seed); whenever a raw CSV
is written, the summary is recomputed from that file rather than from
in-memory state, so the written artifact is the thing being summarized.
"""

import csv
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError
from .feasibility import capacity_bound
from .federation import WatermarkSpec
from .io import write_csv
from .manifest import COUNT_SWEEPS, SWEEPS
from .nn import rng_for
from .runner import make_network, run_once


@dataclass
class ExperimentSummary:
    axis: str
    metric: str
    points: list  # sorted (value, mean, std)
    n_seeds: int
    capacity_mark: Optional[int] = None


def derive_seeds(master, count):
    return [int(rng_for(master, "sweep-seed", i).integers(0, 2**31))
            for i in range(count)]


# ---------------------------------------------------------------------------
# csv plumbing

def write_raw_csv(rows, path):
    """Rows of (axis value, seed, metric value)."""
    write_csv(path, ["axis", "seed", "metric"],
              ((float(value), seed, float(metric)) for value, seed, metric in rows))


def summarize_csv(path):
    """Independent aggregation pass over a raw sweep CSV: per-axis mean and
    population std, points sorted by axis value."""
    groups = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            groups.setdefault(float(row["axis"]), []).append(float(row["metric"]))
    return [(v, float(np.mean(g)), float(np.std(g))) for v, g in sorted(groups.items())]


# ---------------------------------------------------------------------------
# sweeps

def _point(m, value):
    """The manifest of one sweep point.  Count kinds give every embedding
    client (the manifest's `embed.<id>` ids) `value` bits or triggers, and
    fidelity's value 0 is plain FedAvg; rate kinds set the fed key."""
    kind = m.sweep_kind
    if kind not in COUNT_SWEEPS:
        return m.with_fed(**{kind: float(value)})
    if value == 0:
        return replace(m, embed={})
    spec = (WatermarkSpec(n_bits=int(value), beta=3.0) if SWEEPS[kind][0] == "bits"
            else WatermarkSpec(n_triggers=int(value), alpha=1.0))
    return replace(m, embed={cid: spec for cid in sorted(m.embed)})


def _measure(log):
    """Each metric of a run's last round log, None where the run has none.
    Trigger detection is the mean over clients of each one's 1 - error."""
    dets = [1.0 - e for e in log.trigger_error.values()]
    return {"accuracy": log.accuracy,
            "eta": float(np.mean(list(log.eta.values()))) if log.eta else None,
            "trigger_detection": float(np.mean(dets)) if dets else None}


def run_sweep(m, seeds):
    """Run the manifest's sweep: every (value, seed) point once, then per
    metric a raw CSV under `m.out_dir` and the summary recomputed from it.
    A kind reporting one metric names its files `<kind>_*.csv`, the rate
    kinds `<kind>_<metric>_*.csv`.  Fidelity kinds add a zero-payload
    point; reliability_bits marks the capacity bound."""
    if m.sweep_kind not in SWEEPS:
        raise ConfigError(f"the manifest sets no sweep to run (sweep.kind = {m.sweep_kind!r})")
    if not m.embed:
        raise ConfigError(f"sweep.kind = {m.sweep_kind} needs embedding clients "
                          "(embed.<id> lines) in the manifest")
    if m.fed.rounds < 1:
        raise ConfigError(f"sweep.kind = {m.sweep_kind} reads each point's last round: "
                          f"rounds must be >= 1, got {m.fed.rounds}")
    axis, metrics = SWEEPS[m.sweep_kind]
    capacity = (capacity_bound(make_network(m, m.seed), "scale")
                if m.sweep_kind == "reliability_bits" else None)
    values = ((0,) if m.sweep_kind.startswith("fidelity") else ()) + m.sweep_values
    rows = {metric: [] for metric in metrics}
    for value in values:
        for seed in seeds:
            got = _measure(run_once(_point(m, value), seed).logs[-1])
            for metric in metrics:
                if got[metric] is not None:
                    rows[metric].append((value, seed, got[metric]))
    os.makedirs(m.out_dir, exist_ok=True)
    summaries = []
    for metric, metric_rows in rows.items():
        if not metric_rows:
            continue
        name = m.sweep_kind if len(metrics) == 1 else f"{m.sweep_kind}_{metric}"
        raw_path = os.path.join(m.out_dir, f"{name}_raw.csv")
        write_raw_csv(metric_rows, raw_path)
        points = summarize_csv(raw_path)
        write_csv(os.path.join(m.out_dir, f"{name}_summary.csv"), ["axis", "mean", "std"], points)
        summaries.append(ExperimentSummary(axis, metric, points, len(seeds), capacity))
    return summaries


# ---------------------------------------------------------------------------
# closed-form false positive probability

def false_positive_analysis(n_bits, eps_h):
    """Probability that a random model passes the white-box check: the
    exact binomial tail 2^-N * sum_{i<=eps_h} C(N, i)."""
    if n_bits < 1:
        raise ConfigError("n_bits must be >= 1")
    eps_h = min(int(eps_h), n_bits)
    count = sum(math.comb(n_bits, i) for i in range(eps_h + 1))
    return count / 2 ** n_bits
