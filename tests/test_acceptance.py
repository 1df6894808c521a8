"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantity (run with -s to see them inline).

The federated arms share one desk-scale recipe: 4-class Gaussian blobs,
1000 training samples over 8 clients, 60 rounds of FedAvg, MLP with two
16-channel normalization layers (signature capacity 32 bits).
"""

import time

import numpy as np

from fedsign.attacks import run_attack_suite
from fedsign.data import forge_pattern_triggers, make_synthetic
from fedsign.feasibility import capacity_bound, decide, verify_certificate
from fedsign.io import load_checkpoint
from fedsign.manifest import RunManifest, parse_manifest
from fedsign.metrics import false_positive_analysis
from fedsign.nn import ModelParams, build_cnn, build_mlp, rng_for
from fedsign.runner import make_data, make_network, run_once
from fedsign.watermark import (
    bce_reg,
    extract,
    hinge_reg,
    keygen,
    load_key,
    save_key,
    verify_black,
)

from conftest import (gradcheck, oracle_feasible_random, oracle_infeasible_lp, pascal_tail,
                      random_instance, raw_conditions)

SEEDS = (0, 1, 2, 3, 4)

STD = """
classes = 4
per_class = 250
test_per_class = 250
clients = 8
rounds = 60
seed = 0
"""

ARMS = {
    "baseline": "",
    "feature": "".join(f"embed.{k} = mode=scale bits=8 loss=hinge beta=3.0\n"
                       for k in range(4)),
    "overcap": "".join(f"embed.{k} = mode=scale bits=16 loss=hinge beta=3.0\n"
                       for k in range(4)),
    "trigger": "".join(f"embed.{k} = mode=scale bits=8 triggers=10 alpha=1.0\n"
                       for k in range(4)),
    "robust": ("embed.0 = mode=scale bits=8 loss=hinge beta=3.0\n"
               "embed.1 = mode=scale bits=8 loss=hinge beta=3.0\n"
               "embed.2 = mode=kernel bits=32 loss=bce beta=3.0\n"
               "embed.3 = mode=kernel bits=32 loss=bce beta=3.0\n"),
    "mixed": ("".join(f"embed.{k} = mode=scale bits=8 loss=hinge beta=3.0\n"
                      for k in range(4))
              + "".join(f"embed.{k} = mode=scale bits=8 triggers=10 alpha=1.0\n"
                        for k in range(4, 8))),
}

_cache = {}


def arm(name, **fed_overrides):
    """Five-seed federated runs for one experimental arm, cached."""
    key = (name, tuple(sorted(fed_overrides.items())))
    if key not in _cache:
        m = parse_manifest(STD + ARMS[name])
        if fed_overrides:
            m = m.with_fed(**fed_overrides)
        _cache[key] = [run_once(m, seed) for seed in SEEDS]
    return _cache[key]


def final_etas(result):
    return [eta for _, eta in sorted(result.logs[-1].eta.items())]


def final_detections(result):
    return [1.0 - e for _, e in sorted(result.logs[-1].trigger_error.items())]


def report(criterion, detail):
    print(f"\n[criterion {criterion:>2}] PASS  {detail}")


# ---------------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    start = time.time()
    rng = rng_for("acceptance-grad")
    worst = 0.0
    for instance in range(10):
        cases = [
            build_mlp(6, [5], 3, seed=("acc1", instance)),           # dense
            build_mlp(6, [5, 4], 3, seed=("acc1r", instance)),       # relu+scale-norm
            build_cnn(8, 1, [3, 4], 3, seed=("acc1c", instance)),    # conv+maxpool
        ]
        for net in cases:
            x = rng.normal(size=(5,) + net.input_shape)
            labels = rng.integers(0, net.n_classes, size=5)
            worst = max(worst, gradcheck(net, x, labels, rng, coords_per_key=20))

    # both watermark regularizers, via finite differences on the scale pool
    net = build_mlp(8, [16, 16], 3, seed=0)
    for instance in range(10):
        for reg, mode, nbits in ((hinge_reg, "scale", 8), (bce_reg, "kernel", 8)):
            key = keygen(net, instance, nbits, 0, mode, seed=("acc1w", instance))
            params = net.params
            if reg is hinge_reg:
                slack = key.margin - key.bits * extract(params, key)
                if np.abs(slack).min() < 1e-3:
                    continue  # keep probes off the hinge kink
            grads = ModelParams.wrap(params.layout, np.zeros(params.layout.size))
            reg(params, key, grads.vec, 1.0)
            sink = np.zeros(params.layout.size)  # the probes' gradients, unread
            for sel_key in key.selector:
                arr = net.params.entries[sel_key]
                for idx in rng.choice(arr.size, size=min(20, arr.size), replace=False):
                    orig = arr.flat[idx]
                    arr.flat[idx] = orig + 1e-6
                    up = reg(net.params, key, sink, 1.0)
                    arr.flat[idx] = orig - 1e-6
                    dn = reg(net.params, key, sink, 1.0)
                    arr.flat[idx] = orig
                    fd = (up - dn) / 2e-6
                    a = grads.entries[sel_key].flat[idx]
                    err = abs(a - fd) / max(abs(a), abs(fd), 1e-3)
                    worst = max(worst, err)
                    assert err <= 1e-4
    elapsed = time.time() - start
    assert elapsed < 60
    report(1, f"worst relative gradient error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_02_feasibility_oracle_equivalence():
    start = time.time()
    for seed in range(200):
        rng = rng_for("acc-feas", seed)
        ut = random_instance(rng)
        rep = decide(ut)
        assert rep.status != "unknown", seed
        assert verify_certificate(ut, rep)
        if rep.status == "feasible":
            assert rep.margin > 1e-9
            assert oracle_infeasible_lp(ut) is None
        else:
            assert rep.nnls_residual < 1e-9
            assert oracle_feasible_random(ut, rng_for("dirs", seed)) is None
    elapsed = time.time() - start
    assert elapsed < 120
    report(2, f"200 verdicts agree with oracle, none unknown, {elapsed:.1f}s")


def _cond_rank_only(rng):
    while True:
        cols = int(rng.integers(2, 7))
        m = cols + int(rng.integers(0, 3))
        ut = rng.normal(size=(m, cols)) * rng.choice([-1.0, 1.0], size=cols)
        if raw_conditions(ut) == (True, False, False):
            return ut


def _cond_positive_row_only(rng):
    while True:
        cols = int(rng.integers(3, 7))
        m = int(rng.integers(2, cols))  # m < cols kills the rank condition
        ut = rng.normal(size=(m, cols))
        ut[0] = np.abs(ut[0]) + 0.1
        if raw_conditions(ut) == (False, True, False):
            return ut


def _cond_gram_only(rng):
    while True:
        cols = int(rng.integers(3, 7))
        m = int(rng.integers(2, cols))
        v = rng.normal(size=m)
        v /= np.linalg.norm(v)
        ut = v[:, None] + 0.05 * rng.normal(size=(m, cols))
        for i in range(m):
            if (ut[i] > 0).all():  # deny the positive-row condition
                ut[i, int(rng.integers(cols))] = -0.01
        if raw_conditions(ut) == (False, False, True):
            return ut


def test_criterion_03_conditions_imply_feasibility():
    start = time.time()
    generators = (_cond_rank_only, _cond_positive_row_only, _cond_gram_only)
    for which, gen in enumerate(generators):
        for i in range(100):
            ut = gen(rng_for("acc-cond", which, i))
            rep = decide(ut)
            assert rep.status == "feasible", (which, i)
            assert verify_certificate(ut, rep)
    elapsed = time.time() - start
    assert elapsed < 120
    report(3, f"3 x 100 single-condition instances all decided feasible, {elapsed:.1f}s")


def test_criterion_04_reliability_within_capacity():
    start = time.time()
    m = parse_manifest(STD + ARMS["feature"])
    assert capacity_bound(make_network(m, 0), "scale") == 32  # 4 clients x 8 bits fit
    runs = arm("feature")
    for seed, result in zip(SEEDS, runs):
        etas = final_etas(result)
        assert len(etas) == 4
        assert all(eta == 1.0 for eta in etas), (seed, etas)
    elapsed = time.time() - start
    assert elapsed < 600
    report(4, f"eta = 1.0 for 4 clients x 5 seeds after 60 rounds ({elapsed:.0f}s)")


def test_criterion_05_over_capacity_degradation():
    over = [float(np.mean(final_etas(r))) for r in arm("overcap")]
    within = [float(np.mean(final_etas(r))) for r in arm("feature")]
    pooled = float(np.mean(over))
    assert 0.7 <= pooled < 1.0
    below = sum(o < w for o, w in zip(over, within))
    assert below >= 4
    report(5, f"2x capacity mean eta {pooled:.3f}, below within-capacity in {below}/5 seeds")


def test_criterion_06_fidelity():
    base = [r.final_accuracy for r in arm("baseline")]
    feat = [r.final_accuracy for r in arm("feature")]
    trig = [r.final_accuracy for r in arm("trigger")]
    feat_drops = [b - f for b, f in zip(base, feat)]
    trig_drops = [b - t for b, t in zip(base, trig)]
    # J=10 triggers per client on 125-sample shards: payload within 10%
    shard = 1000 // 8
    assert 10 <= 0.10 * shard
    assert max(feat_drops) <= 0.02 and float(np.mean(feat_drops)) <= 0.02
    assert max(trig_drops) <= 0.01 and float(np.mean(trig_drops)) <= 0.01
    report(6, f"accuracy drop: features {max(feat_drops):+.4f} (<=2%), "
              f"triggers {max(trig_drops):+.4f} (<=1%)")


def test_criterion_07_black_box_verification():
    for seed, result in zip(SEEDS, arm("trigger")):
        dets = final_detections(result)
        assert len(dets) == 4
        assert all(d >= 0.8 for d in dets), (seed, dets)
    # chance-level control: fresh models on a 10-class task
    ds = make_synthetic(10, 30, seed=901)
    triggers = forge_pattern_triggers(ds, 20, target=3, seed=902)
    passes = 0
    for i in range(20):
        net = build_mlp(32, [16, 16], 10, seed=("acc7", i))
        passes += verify_black(net, triggers, eps_y=0.2).verdict
    assert passes / 20 < 0.05
    report(7, f"trigger detection >= 0.8 everywhere; {passes}/20 random models pass")


def test_criterion_08_robustness_ordering():
    prune_gammas, ft_orderings = [], []
    m = parse_manifest(STD + ARMS["robust"])
    for seed, result in zip(SEEDS, arm("robust")):
        keys = [c.key for c in result.clients if c.key is not None]
        grid = RunManifest(attack_prune=(0.5,), attack_finetune_epochs=(50,),
                           attack_finetune_lr=1e-4, attack_seed=seed)
        train, test = make_data(m, seed)
        reports = run_attack_suite(grid, result.net, result.params, keys, [], train,
                                   (test.inputs, test.labels))
        prune_rep, ft_rep = reports
        prune_gammas.append(prune_rep.eta_gamma)
        ft_orderings.append(ft_rep.eta_gamma >= ft_rep.eta_kernel)
    assert float(np.mean(prune_gammas)) >= 0.95
    assert sum(ft_orderings) >= 4
    report(8, f"prune@0.5 mean gamma eta {np.mean(prune_gammas):.3f}; "
              f"finetune ordering holds in {sum(ft_orderings)}/5 seeds")


def test_criterion_09_dp_and_fraction_robustness():
    base_acc = float(np.mean([r.final_accuracy for r in arm("baseline")]))
    sigma_grid = (0.003, 0.01, 0.03)
    best_sigma, best_eta = None, None
    for sigma in sigma_grid:
        runs = arm("mixed", dp_sigma=sigma)
        acc = float(np.mean([r.final_accuracy for r in runs]))
        if acc >= base_acc - 0.05:
            best_sigma = sigma
            best_eta = float(np.mean([np.mean(final_etas(r)) for r in runs]))
    assert best_sigma is not None
    assert best_eta >= 0.95

    full = arm("mixed")
    quarter = arm("mixed", fraction=0.25)
    eta_full = float(np.mean([np.mean(final_etas(r)) for r in full]))
    eta_quarter = float(np.mean([np.mean(final_etas(r)) for r in quarter]))
    det_full = float(np.mean([np.mean(final_detections(r)) for r in full]))
    det_quarter = float(np.mean([np.mean(final_detections(r)) for r in quarter]))
    assert abs(eta_quarter - eta_full) <= 0.05
    assert abs(det_quarter - det_full) <= 0.05
    report(9, f"sigma={best_sigma}: eta {best_eta:.3f} >= 0.95; "
              f"C=0.25 vs 1.0: eta {eta_quarter:.3f}/{eta_full:.3f}, "
              f"det {det_quarter:.3f}/{det_full:.3f}")


def test_criterion_10_false_positive_math():
    checked = 0
    for n in range(1, 21):
        for eps in range(n + 1):
            assert false_positive_analysis(n, eps) == pascal_tail(n, eps)
            checked += 1
    report(10, f"{checked} (N, radius) pairs match exact binomial enumeration")


def test_criterion_11_determinism_and_formats(tmp_path):
    from fedsign.cli import main
    template = (STD.replace("clients = 8", "clients = 4")
                   .replace("rounds = 60", "rounds = 6")
                   .replace("per_class = 250", "per_class = 60")
                + "embed.0 = mode=scale bits=8 beta=3.0 triggers=5 alpha=1.0\n"
                + "embed.1 = mode=kernel bits=16 loss=bce beta=3.0\n")
    artifacts = []
    for run in ("a", "b"):
        out = tmp_path / run
        manifest = tmp_path / f"{run}.manifest"
        manifest.write_text(template + f"out_dir = {out}\n")
        assert main(["train", str(manifest)]) == 0
        artifacts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert artifacts[0].keys() == artifacts[1].keys()
    assert artifacts[0] == artifacts[1]

    # round trips are bit-exact
    out = tmp_path / "a"
    desc, seed, entries = load_checkpoint(out / "checkpoint.bin")
    resaved = tmp_path / "resaved.bin"
    from fedsign.io import save_checkpoint
    save_checkpoint(resaved, desc, seed, entries)
    assert resaved.read_bytes() == (out / "checkpoint.bin").read_bytes()
    key = load_key(out / "client_0.key")
    resaved_key = tmp_path / "resaved.key"
    save_key(key, resaved_key)
    again = load_key(resaved_key)
    assert np.array_equal(again.bits, key.bits)
    assert np.array_equal(again.coords, key.coords)
    assert np.array_equal(again.triggers.samples, key.triggers.samples)
    report(11, f"{len(artifacts[0])} artifacts bitwise identical across reruns; "
               "round trips exact")
