"""Experiment sweeps: fidelity, reliability and robustness curves over
derived seeds, with CSV emission and an independent summary pass.

Raw sweep CSVs carry one row per (axis value, seed); whenever a raw CSV
is written, the summary is recomputed from that file rather than from
in-memory state, so the written artifact is the thing being summarized.
"""

import csv
import math
import os
from dataclasses import dataclass, replace
from io import StringIO
from typing import Optional

import numpy as np

from .errors import ConfigError
from .feasibility import capacity_bound
from .federation import WatermarkSpec
from .io import write_atomic
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

def _write_csv(path, header, rows):
    f = StringIO()
    csv.writer(f).writerows([header, *rows])
    write_atomic(path, f.getvalue())


def write_raw_csv(rows, path):
    """Rows of (axis value, seed, metric value)."""
    _write_csv(path, ["axis", "seed", "metric"],
               ([repr(float(value)), seed, repr(float(metric))] for value, seed, metric in rows))


def _group_points(pairs):
    """Per-axis mean and population std over (axis value, metric) pairs,
    points sorted by axis value."""
    groups = {}
    for value, metric in pairs:
        groups.setdefault(value, []).append(metric)
    return [(v, float(np.mean(g)), float(np.std(g)))
            for v, g in sorted(groups.items())]


def summarize_csv(path):
    """Independent aggregation pass over a raw sweep CSV."""
    with open(path, newline="") as f:
        return _group_points((float(row["axis"]), float(row["metric"]))
                             for row in csv.DictReader(f))


def write_summary_csv(points, path):
    _write_csv(path, ["axis", "mean", "std"],
               ([repr(float(value)), repr(mean), repr(std)] for value, mean, std in points))


def _summary_from_rows(rows, axis, metric, n_seeds, out_dir=None, name=None,
                       capacity_mark=None):
    """Summarize sweep rows; with `out_dir`, write the raw CSV and build the
    summary from that file."""
    if out_dir is None:
        points = _group_points((float(value), float(m)) for value, _, m in rows)
    else:
        os.makedirs(out_dir, exist_ok=True)
        raw_path = os.path.join(out_dir, f"{name}_raw.csv")
        write_raw_csv(rows, raw_path)
        points = summarize_csv(raw_path)
        write_summary_csv(points, os.path.join(out_dir, f"{name}_summary.csv"))
    return ExperimentSummary(axis, metric, points, n_seeds, capacity_mark)


# ---------------------------------------------------------------------------
# sweeps

def _assign_all(m, client_ids, **spec_kw):
    return replace(m, embed={cid: WatermarkSpec(**spec_kw) for cid in client_ids})


def fidelity_sweep(base, values, seeds=None, axis="bits", out_dir=None):
    """Main-task test accuracy versus embedded payload size.

    axis="bits": every embedding client carries `value` feature bits;
    axis="triggers": every embedding client carries `value` trigger
    samples.  A zero-payload baseline point (plain FedAvg, same seeds) is
    always included.
    """
    if axis not in ("bits", "triggers"):
        raise ConfigError(f"fidelity axis must be bits or triggers, got {axis!r}")
    seeds = seeds if seeds is not None else derive_seeds(base.seed, 5)
    client_ids = sorted(base.embed) or [0]
    rows = []
    for value in [0] + [int(v) for v in values]:
        for seed in seeds:
            if value == 0:
                m = replace(base, embed={})
            elif axis == "bits":
                m = _assign_all(base, client_ids, mode="scale", n_bits=value,
                                loss="hinge", beta=3.0)
            else:
                m = _assign_all(base, client_ids, mode="scale", n_bits=8,
                                n_triggers=value, alpha=1.0)
            rows.append((value, seed, run_once(m, seed).final_accuracy))
    return _summary_from_rows(rows, axis, "accuracy", len(seeds), out_dir,
                              f"fidelity_{axis}")


def reliability_sweep(base, bit_lengths, n_w, seeds=None, out_dir=None):
    """Mean white-box detection rate versus per-client bit length for n_w
    embedding clients; the capacity bound is marked on the axis."""
    seeds = seeds if seeds is not None else derive_seeds(base.seed, 5)
    capacity = capacity_bound(make_network(base, base.seed), "scale")
    rows = []
    for value in bit_lengths:
        for seed in seeds:
            m = _assign_all(base, range(n_w), mode="scale", n_bits=int(value),
                            loss="hinge", beta=3.0)
            result = run_once(m, seed)
            etas = [result.logs[-1].eta[c] for c in range(n_w)]
            rows.append((value, seed, float(np.mean(etas))))
    return _summary_from_rows(rows, "bits", "eta", len(seeds), out_dir,
                              "reliability_bits", capacity_mark=capacity)


def trigger_reliability_sweep(base, trigger_counts, n_b, seeds=None, out_dir=None):
    """Trigger detection rate (1 - trigger error) versus triggers per client
    for n_b trigger-embedding clients."""
    seeds = seeds if seeds is not None else derive_seeds(base.seed, 5)
    rows = []
    for value in trigger_counts:
        for seed in seeds:
            m = _assign_all(base, range(n_b), mode="scale", n_bits=8,
                            n_triggers=int(value), alpha=1.0)
            result = run_once(m, seed)
            dets = [1.0 - result.logs[-1].trigger_error[c] for c in range(n_b)]
            rows.append((value, seed, float(np.mean(dets))))
    return _summary_from_rows(rows, "triggers", "trigger_detection", len(seeds),
                              out_dir, "reliability_triggers")


def robustness_sweep(base, axis, values, seeds=None, out_dir=None):
    """Detection and accuracy under training-time interference: Gaussian
    noise on uploads (axis="dp_sigma") or partial participation
    (axis="fraction").  Emits one summary per metric."""
    if axis not in ("dp_sigma", "fraction"):
        raise ConfigError(f"robustness axis must be dp_sigma or fraction, got {axis!r}")
    seeds = seeds if seeds is not None else derive_seeds(base.seed, 5)
    if not base.embed:
        raise ConfigError("robustness sweep needs embedding clients in the manifest")
    acc_rows, eta_rows, det_rows = [], [], []
    for value in values:
        for seed in seeds:
            m = base.with_fed(**{axis: float(value)})
            result = run_once(m, seed)
            last = result.logs[-1]
            acc_rows.append((value, seed, last.accuracy))
            if last.eta:
                eta_rows.append((value, seed, float(np.mean(list(last.eta.values())))))
            if last.trigger_error:
                det_rows.append((value, seed,
                                 1.0 - float(np.mean(list(last.trigger_error.values())))))
    out = {"accuracy": _summary_from_rows(acc_rows, axis, "accuracy", len(seeds),
                                          out_dir, f"{axis}_accuracy")}
    if eta_rows:
        out["eta"] = _summary_from_rows(eta_rows, axis, "eta", len(seeds),
                                        out_dir, f"{axis}_eta")
    if det_rows:
        out["trigger_detection"] = _summary_from_rows(
            det_rows, axis, "trigger_detection", len(seeds), out_dir,
            f"{axis}_trigger_detection")
    return out


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
