"""One fedsign user session under a workload: `train`, `verify` on every key,
`feasibility` on each selector group of feature keys, and `attack`, each
run through `fedsign.cli.main` and timed from outside, then checked
against recomputations made apart from the program.

An operation is one CLI command or one output check.  A command fails if
it raises, exits 2 or 3, or prints something other than the check
expects; a check fails if the output disagrees with the recomputation or
a key the workload requires to be detected is not detected.
"""

import contextlib
import io
import math
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import fedsign
from fedsign import io as fio
from fedsign.cli import main as cli_main
from fedsign.data import split
from fedsign.feasibility import decide, stack
from fedsign.manifest import parse_manifest
from fedsign.runner import make_data
from fedsign.watermark import load_key

import checks
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A zero-round or full `fedsign train` in a fresh interpreter, so that its
# wall time covers process start and the import of fedsign.
TRAIN_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from fedsign.cli import main; sys.exit(main(['train', sys.argv[2]]))")
CHILD_TIMEOUT_S = 150
ACCURACY_FLOOR = 0.6          # 4 classes: chance is 0.25
MIN_VERIFY_CALLS = 100        # leaves at least 10 samples beyond the 90th percentile
REPEATS = 3                   # trains and attacks per untraced run, two set-ups each
NEGATIVE_CONTROL_BITS = 32
OVERHEAD_PAIRS = 3            # untraced/traced train pairs per traced run


class Ops:
    """Operations attempted; each failed one is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}".strip())


def call(argv):
    """Run one CLI command in process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except (Exception, SystemExit) as exc:
        code = f"raised {exc!r}"
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def train_child(manifest):
    """`fedsign train` in its own interpreter; returns like `call`."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", TRAIN_CHILD, str(SRC), str(manifest)],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timed out", "", "", time.perf_counter() - start
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def local_rows(m, rounds_rows):
    """Local-training rows of a run: clean rows plus poisoned trigger rows of
    every selected client in every round, over all local epochs."""
    train, _ = make_data(m, m.seed)
    shards = split(train, m.fed.n_clients, mode=m.split, seed=(m.seed, "split"),
                   concentration=m.concentration)
    per_update = {}
    for shard in shards:
        spec = m.embed.get(shard.client_id)
        poisoned = 0
        if spec is not None and spec.alpha > 0:
            poisoned = math.ceil(shard.size / m.fed.batch) * m.fed.backdoor_batch
        per_update[shard.client_id] = m.fed.local_epochs * (shard.size + poisoned)
    return sum(per_update[int(cid)] for row in rounds_rows for cid in row["selected"].split(";"))


def _field(pattern, text, kind=float):
    found = re.search(pattern, text)
    return kind(found.group(1)) if found else None


class Session:
    def __init__(self, workload, seed):
        self.wl = workload
        self.seed = seed
        self.ops = Ops()
        self.work = ROOT / "runs" / "sessionbench" / f"{workload.name}-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        spec = self.m = parse_manifest(workload.manifest(seed, self.work))
        self.feature_ids = sorted(c for c, s in spec.embed.items() if s.beta > 0)
        self.trigger_ids = sorted(c for c, s in spec.embed.items() if s.alpha > 0)
        groups = {}
        for cid in self.feature_ids:
            groups.setdefault(spec.embed[cid].mode, []).append(cid)
        self.groups = [groups[mode] for mode in sorted(groups)]
        self.outputs = {}

    def path(self, name, artifact=""):
        return self.work / name / artifact

    def key(self, name, cid):
        return str(self.path(name, f"client_{cid}.key"))

    def manifest(self, name, rounds=None):
        path = self.work / f"{name}.manifest"
        path.write_text(self.wl.manifest(self.seed, self.path(name), rounds))
        return path

    # -- commands ----------------------------------------------------------

    def train(self, name, rounds=None, in_process=False):
        manifest = self.manifest(name, rounds)
        if in_process:
            code, _, err, seconds = call(["train", str(manifest)])
        else:
            code, _, err, seconds = train_child(manifest)
        self.ops.record(f"train {name}", code == 0, f"exit {code} {err}")
        return seconds

    def attack(self, name):
        code, _, err, seconds = call(["attack", str(self.work / f"{name}.manifest")])
        self.ops.record(f"attack {name}", code == 0, f"exit {code} {err}")
        return seconds

    def repeated(self, op, argv):
        """A command whose output must not change between calls."""
        code, out, err, seconds = call(argv)
        first = self.outputs.setdefault(op, (code, out))
        self.ops.record(op, code in (0, 1) and (code, out) == first,
                        f"exit {code} {err}" if code not in (0, 1) else "output changed")
        return seconds

    def query_rounds(self, name, seconds, min_calls):
        """Whole rounds of `verify` on every key and `feasibility` on every
        group, until `seconds` have passed and at least `min_calls` verify
        calls were made.  Returns every verify latency and, per round, the
        latency of each group's feasibility call."""
        ckpt = str(self.path(name, "checkpoint.bin"))
        keys = ([(cid, "white") for cid in self.feature_ids]
                + [(cid, "black") for cid in self.trigger_ids])
        min_rounds = math.ceil(min_calls / len(keys))
        verify, feasibility = [], []
        start = time.perf_counter()
        while len(feasibility) < min_rounds or time.perf_counter() - start < seconds:
            verify += [self.repeated(f"verify {cid}",
                                     ["verify", ckpt, self.key(name, cid), "--mode", mode])
                       for cid, mode in keys]
            feasibility.append([self.repeated(f"feasibility {i}",
                                              ["feasibility"] + [self.key(name, c) for c in group])
                                for i, group in enumerate(self.groups)])
        return verify, feasibility

    # -- checks ------------------------------------------------------------

    def check(self, name, others):
        """Every output check of the session on run directory `name`, whose
        artifacts must equal those of the run directories `others`; returns
        the detection rates that `verify` reported."""
        record = self.ops.record
        _, _, entries = fio.load_checkpoint(self.path(name, "checkpoint.bin"))
        rounds_rows = checks.read_csv(self.path(name, "rounds.csv"))
        last = rounds_rows[-1]
        accuracy = float(last["accuracy"])
        record("accuracy floor", accuracy >= ACCURACY_FLOOR, f"{accuracy} < {ACCURACY_FLOOR}")

        detection = {}
        scale_etas = []
        for cid in self.feature_ids:
            raw = fio.load_keyfile(self.key(name, cid))
            hamming, eta, verdict = checks.white_box(entries, raw)
            code, out = self.outputs[f"verify {cid}"]
            shown = _field(r"hamming=(\d+)", out, int)
            record(f"white-box recomputation {cid}", shown == hamming and (code == 0) == verdict,
                   f"verify says hamming={shown} exit {code}, numpy {hamming} {verdict}")
            reported = 1.0 - shown / raw["bits"].size if shown is not None else 0.0
            detection[cid] = reported
            rate = _field(r"detection_rate=([\d.]+)", out)
            record(f"round trip {cid}", reported == float(last[f"eta_{cid}"])
                   and rate is not None and abs(rate - eta) <= 5e-5,
                   f"verify {reported}, rounds.csv {last[f'eta_{cid}']}")
            if self.wl.require_features:
                record(f"detected {cid}", code == 0, f"feature key {cid} not detected")
            if raw["coords"] is not None:
                scale_etas.append(eta)
            if raw["bits"].size >= NEGATIVE_CONTROL_BITS:
                self.negative_control(cid, name)

        for cid in self.trigger_ids:
            code, out = self.outputs[f"verify {cid}"]
            shown = _field(r"trigger_error=([\d.]+)", out)
            stored = float(last[f"trigerr_{cid}"])
            record(f"round trip {cid}", shown is not None and abs(shown - stored) <= 5e-5,
                   f"verify {shown}, rounds.csv {stored}")
            if self.wl.require_triggers:
                record(f"detected {cid}", code == 0, f"trigger key {cid} not detected")

        for i, group in enumerate(self.groups):
            paths = [self.key(name, cid) for cid in group]
            u_tilde = checks.signed_stack([fio.load_keyfile(p) for p in paths])
            expected, t_star = checks.lp_status(u_tilde)
            _, out = self.outputs[f"feasibility {i}"]
            shown = (_field(r"status=(\w+)", out, str) or "").lower()
            record(f"feasibility {i} vs HiGHS", shown == expected,
                   f"fedsign {shown}, HiGHS t*={t_star:.3e} {expected}")
            report = decide(stack([load_key(p) for p in paths]))
            record(f"feasibility {i} certificate",
                   report.status == shown and checks.certificate_holds(u_tilde, report),
                   f"decide {report.status}")

        attacks = checks.read_csv(self.path(name, "attacks.csv"))
        record("attack acc_before", all(float(r["acc_before"]) == accuracy for r in attacks),
               "acc_before differs from rounds.csv")
        prunes = [r["eta_gamma"] for r in attacks if r["attack"] == "prune"]
        if scale_etas:
            before = float(np.mean(scale_etas))
            ok = len(set(prunes)) == 1 and math.isclose(float(prunes[0]), before, rel_tol=1e-12)
        else:
            ok = set(prunes) <= {""}
        record("pruning keeps scale keys", ok, f"eta_gamma {sorted(set(prunes))}")

        reference = checks.digests(self.path(name))
        for other in others:
            got = checks.digests(self.path(other))
            if other.startswith("setup"):
                ref = {k: v for k, v in reference.items() if k.startswith("client_")}
                got = {k: v for k, v in got.items() if k.startswith("client_")}
            elif "attacks.csv" not in got:     # trained but not attacked
                ref = {k: v for k, v in reference.items() if k != "attacks.csv"}
            else:
                ref = reference
            record(f"determinism {other}", got == ref, f"{other} differs from {name}")
        return detection

    def negative_control(self, cid, name):
        """A key of >= 32 bits must fail against the zero-round checkpoint."""
        ckpt = self.path("setup-0", "checkpoint.bin")
        code, out, err, _ = call(["verify", str(ckpt), self.key(name, cid), "--mode", "white"])
        _, _, entries = fio.load_checkpoint(ckpt)
        hamming, _, verdict = checks.white_box(entries, fio.load_keyfile(self.key(name, cid)))
        self.ops.record(f"verify {cid} untrained",
                        code in (0, 1) and _field(r"hamming=(\d+)", out, int) == hamming
                        and (code == 0) == verdict, f"exit {code} {err}")
        self.ops.record(f"negative control {cid}", code == 1, "key verified on an untrained model")

    def cleanup(self):
        for child in self.work.iterdir():
            if child.is_dir():
                shutil.rmtree(child)


def run(workload, seed, seconds, trace):
    """One run; returns the result object printed as the last output line."""
    if not Path(fedsign.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"fedsign was imported from {fedsign.__file__}, not {SRC}")
    s = Session(workload, seed)
    if trace:
        s.train("setup-0", rounds=0, in_process=True)
        # Untraced and traced trains alternate; the overhead is the median of
        # the pairs' differences.  Only the first traced train, its attack
        # and the query rounds on it give the per-layer metrics.
        tracer = Tracer()
        overheads = []
        for i in range(OVERHEAD_PAIRS):
            plain = s.train(f"plain-{i}", in_process=True)
            pair = tracer if i == 0 else Tracer()
            pair.install()
            try:
                overheads.append(s.train(f"traced-{i}", in_process=True) - plain)
                if i == 0:
                    s.attack("traced-0")
                    s.query_rounds("traced-0", seconds, MIN_VERIFY_CALLS)
            finally:
                pair.remove()
        tracer.write(s.work / "spans.csv")
        s.check("traced-0", [f"{kind}-{i}" for i in range(OVERHEAD_PAIRS)
                             for kind in ("plain", "traced") if (kind, i) != ("traced", 0)]
                + ["setup-0"])
        total_bits = sum(s.m.embed[cid].n_bits for group in s.groups for cid in group)
        metrics = layer_metrics(tracer, s.m.fed.rounds, total_bits,
                                statistics.median(overheads))
    else:
        # Each repetition sets up, trains, attacks, sets up again and queries
        # in turn, so that every metric samples the whole run and not one
        # stretch of it.
        setups = [f"setup-{i}" for i in range(2 * REPEATS)]
        trains = [f"train-{i}" for i in range(REPEATS)]
        setup_t, train_t, attack_t = [], [], []
        verify, feasibility = [], []
        for i, train in enumerate(trains):
            setup_t.append(s.train(setups[2 * i], rounds=0))
            train_t.append(s.train(train))
            attack_t.append(s.attack(train))
            setup_t.append(s.train(setups[2 * i + 1], rounds=0))
            calls, rounds = s.query_rounds(train, seconds / REPEATS, MIN_VERIFY_CALLS / REPEATS)
            verify += calls
            feasibility += rounds
        setup_s = statistics.median(setup_t)
        train_s = statistics.median(train_t)
        detection = s.check(trains[-1], trains[:-1] + setups)
        rounds_rows = checks.read_csv(s.path(trains[-1], "rounds.csv"))
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {
            "setup_s": (setup_s, "s"),
            "train_s": (train_s, "s"),
            "train_samples_per_s": (local_rows(s.m, rounds_rows) / (train_s - setup_s),
                                    "samples/s"),
            "verify_ms": (statistics.median(verify) * 1e3, "ms"),
            "verify_p90_ms": (statistics.quantiles(verify, n=10)[-1] * 1e3, "ms"),
            # Groups differ in cost, so the median is taken per group and
            # then averaged, rather than pooled at the boundary between them.
            "feasibility_ms": (statistics.fmean(statistics.median(g) for g in zip(*feasibility))
                               * 1e3, "ms"),
            "attack_s": (statistics.median(attack_t), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
            "test_accuracy": (float(rounds_rows[-1]["accuracy"]), "fraction"),
            "detection_rate": (statistics.fmean(detection.values()), "fraction"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    s.cleanup()
    for failure in s.ops.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {"correct": not s.ops.failures, "attempted": s.ops.attempted,
            "failed": len(s.ops.failures), "metrics": metrics}
