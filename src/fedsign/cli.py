"""Command-line entry point.

Subcommands: train, verify, feasibility, attack, sweep, info.
Exit codes: 0 success/verified, 1 verification failed, 2 input or
configuration error, 3 internal error.
"""

import argparse
import os
import sys

from . import io
from .attacks import attack_reports_to_csv, run_attack_suite
from .errors import FedsignError
from .feasibility import decide, stack
from .federation import round_logs_to_csv
from .manifest import load_manifest
from .metrics import (
    derive_seeds,
    fidelity_sweep,
    reliability_sweep,
    robustness_sweep,
    trigger_reliability_sweep,
)
from .nn import ModelParams, network_from_descriptor
from .runner import make_data, run_once
from .watermark import load_key, save_key, verify_black, verify_white

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _checkpoint_path(out_dir):
    return os.path.join(out_dir, "checkpoint.bin")


def _key_path(out_dir, cid):
    return os.path.join(out_dir, f"client_{cid}.key")


# ---------------------------------------------------------------------------
# commands

def cmd_train(args):
    m = load_manifest(args.manifest)
    result = run_once(m)
    os.makedirs(m.out_dir, exist_ok=True)
    io.save_checkpoint(_checkpoint_path(m.out_dir), result.net.descriptor,
                       m.seed, result.params.entries)
    n_keys = 0
    for state in result.clients:
        if state.key is not None:
            save_key(state.key, _key_path(m.out_dir, state.client_id))
            n_keys += 1
    round_logs_to_csv(result.logs, os.path.join(m.out_dir, "rounds.csv"),
                      m.fed.n_clients)
    acc = result.final_accuracy
    print(f"trained {m.fed.rounds} rounds, {m.fed.n_clients} clients"
          + (f", final accuracy {acc:.4f}" if acc is not None else ""))
    print(f"wrote checkpoint + {n_keys} keyfile(s) + rounds.csv to {m.out_dir}")
    return EXIT_OK


def cmd_verify(args):
    descriptor, _, entries = io.load_checkpoint(args.checkpoint)
    params = ModelParams(entries)
    key = load_key(args.keyfile)
    verdict = True
    if args.mode in ("white", "both"):
        res = verify_white(params, key, args.eps_h)
        print(res.summary())
        verdict &= res.verdict
    if args.mode in ("black", "both"):
        if key.triggers is None:
            raise FedsignError("keyfile carries no trigger set for black-box mode")
        net = network_from_descriptor(descriptor, seed=0)
        net.set_params(params)
        res = verify_black(net, key.triggers, args.eps_y)
        print(res.summary())
        verdict &= res.verdict
    return EXIT_OK if verdict else EXIT_VERIFY_FAILED


def cmd_feasibility(args):
    keys = [load_key(path) for path in args.keyfiles]
    se = stack(keys)
    report = decide(se)
    print(f"{se.n_keys} key(s), {se.n_cols} total bits, pool size {se.u.shape[0]}")
    print(report.summary())
    if args.csv:
        row = [int(report.cond_rank), int(report.cond_positive_row),
               int(report.cond_gram_positive), report.status,
               "" if report.margin is None else repr(report.margin),
               "" if report.nnls_residual is None else repr(report.nnls_residual),
               se.n_keys, se.n_cols]
        io.write_atomic(args.csv, "cond_rank,cond_positive_row,cond_gram_positive,status,"
                        "margin,nnls_residual,n_keys,total_bits\n"
                        + ",".join(map(str, row)) + "\n")
    return EXIT_VERIFY_FAILED if report.status == "infeasible" else EXIT_OK


def cmd_attack(args):
    m = load_manifest(args.manifest)
    ckpt = _checkpoint_path(m.out_dir)
    if not os.path.exists(ckpt):
        raise FedsignError(f"missing checkpoint {ckpt}; run `fedsign train` first")
    descriptor, _, entries = io.load_checkpoint(ckpt)
    params = ModelParams(entries)
    net = network_from_descriptor(descriptor, seed=0)
    feature_keys, trigger_keys = [], []
    for cid in sorted(m.embed):
        path = _key_path(m.out_dir, cid)
        if not os.path.exists(path):
            continue
        key = load_key(path)
        if m.embed[cid].beta > 0:
            feature_keys.append(key)
        if m.embed[cid].alpha > 0:
            trigger_keys.append(key)
    train, test = make_data(m, m.seed)
    reports = run_attack_suite(net, params, feature_keys,
                               (test.inputs, test.labels),
                               train, prune_rates=m.attack_prune,
                               finetune_epochs=m.attack_finetune_epochs,
                               finetune_lr=m.attack_finetune_lr,
                               seed=m.attack_seed, trigger_keys=trigger_keys)
    out = os.path.join(m.out_dir, "attacks.csv")
    attack_reports_to_csv(reports, out)
    for r in reports:
        tail = "" if r.eta_gamma is None else f" eta_gamma={r.eta_gamma:.3f}"
        tail += "" if r.eta_kernel is None else f" eta_kernel={r.eta_kernel:.3f}"
        tail += "" if r.trigger_err is None else f" trigger_err={r.trigger_err:.3f}"
        print(f"{r.attack}({r.param:g}): acc {r.acc_before:.3f} -> {r.acc_after:.3f}{tail}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_sweep(args):
    m = load_manifest(args.manifest)
    if not m.sweep_kind:
        raise FedsignError("manifest has no sweep.kind")
    os.makedirs(m.out_dir, exist_ok=True)
    seeds = derive_seeds(m.seed, m.sweep_seeds)
    values = m.sweep_values
    if m.sweep_kind == "fidelity_bits":
        summaries = [fidelity_sweep(m, values, seeds, axis="bits", out_dir=m.out_dir)]
    elif m.sweep_kind == "fidelity_triggers":
        summaries = [fidelity_sweep(m, values, seeds, axis="triggers", out_dir=m.out_dir)]
    elif m.sweep_kind == "reliability_bits":
        n_w = len(m.embed) or 4
        summaries = [reliability_sweep(m, values, n_w, seeds, out_dir=m.out_dir)]
    elif m.sweep_kind == "reliability_triggers":
        n_b = len(m.embed) or 4
        summaries = [trigger_reliability_sweep(m, values, n_b, seeds, out_dir=m.out_dir)]
    else:
        summaries = list(robustness_sweep(m, m.sweep_kind, values, seeds,
                                          out_dir=m.out_dir).values())
    for s in summaries:
        mark = "" if s.capacity_mark is None else f" (capacity bound: {s.capacity_mark})"
        print(f"sweep {s.axis} -> {s.metric}, {s.n_seeds} seeds{mark}")
        for value, mean, std in s.points:
            print(f"  {value:g}: {mean:.4f} +/- {std:.4f}")
    print(f"wrote sweep CSVs to {m.out_dir}")
    return EXIT_OK


def cmd_info(args):
    with open(args.path, "rb") as f:
        head = f.read(12)
    if head[:8] != io.MAGIC:
        m = load_manifest(args.path)  # text manifest, parse errors -> exit 2
        print(f"manifest: arch={m.arch} data={m.data_kind} classes={m.classes} "
              f"clients={m.fed.n_clients} rounds={m.fed.rounds} seed={m.seed}")
        print(f"embedding clients: {sorted(m.embed) or 'none'}")
        return EXIT_OK
    tag = head[8:12]
    if tag == io.TAG_CHECKPOINT:
        descriptor, seed, entries = io.load_checkpoint(args.path)
        count = sum(v.size for v in entries.values())
        print(f"checkpoint: arch={descriptor} seed={seed} "
              f"tensors={len(entries)} parameters={count}")
    elif tag == io.TAG_KEYFILE:
        key = load_key(args.path)
        kind = "coords" if key.extractor.coords is not None else "dense"
        trig = key.triggers.size if key.triggers is not None else 0
        print(f"keyfile: client={key.client_id} bits={key.n_bits} extractor={kind} "
              f"pool={key.extractor.pool_size} triggers={trig} margin={key.margin}")
    elif tag == io.TAG_TRIGGERS:
        samples, targets, classes, meta = io.load_triggers(args.path)
        print(f"triggers: samples={len(targets)} shape={samples.shape[1:]} "
              f"provenance={meta.get('provenance')} eps={meta.get('eps')}")
    else:
        raise FedsignError(f"unknown artifact tag {tag!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def build_parser():
    p = argparse.ArgumentParser(prog="fedsign",
                                description="Federated ownership-signature simulator")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run federated training from a manifest")
    t.add_argument("manifest")
    t.set_defaults(func=cmd_train)

    v = sub.add_parser("verify", help="check a signature against a checkpoint")
    v.add_argument("checkpoint")
    v.add_argument("keyfile")
    v.add_argument("--mode", choices=("white", "black", "both"), default="white")
    v.add_argument("--eps-h", type=int, default=None,
                   help="max Hamming distance (default: 5%% of the bit length)")
    v.add_argument("--eps-y", type=float, default=0.2,
                   help="max trigger error rate")
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("feasibility", help="joint-embedding feasibility of keyfiles")
    f.add_argument("keyfiles", nargs="+")
    f.add_argument("--csv", default=None, help="also write a machine-readable report")
    f.set_defaults(func=cmd_feasibility)

    a = sub.add_parser("attack", help="run removal attacks on trained artifacts")
    a.add_argument("manifest")
    a.set_defaults(func=cmd_attack)

    s = sub.add_parser("sweep", help="run the manifest's experiment sweep")
    s.add_argument("manifest")
    s.set_defaults(func=cmd_sweep)

    i = sub.add_parser("info", help="describe an artifact or manifest")
    i.add_argument("path")
    i.set_defaults(func=cmd_info)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FedsignError, OSError) as exc:  # bad input: artifacts, manifests, paths
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # anything else is a bug in fedsign
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
