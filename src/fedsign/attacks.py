"""Removal attacks: random weight pruning and main-task fine-tuning,
with before/after verification against the original keys.

A fine-tuning grid is one run to its largest epoch budget, with the
parameters copied out after each budget's last epoch.  Each copy equals a
separate run of that many epochs: epoch e shuffles with its own stream, the
rate decays once per epoch and momentum starts at zero, none of which
depends on the run's length."""

from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError
from .io import write_csv
from .nn import accuracy, rng_for, sgd_epochs
from .watermark import verify_black, verify_white


@dataclass
class AttackReport:
    attack: str           # prune | finetune
    param: float          # pruning rate or fine-tune epochs
    acc_before: float
    acc_after: float
    eta_gamma: Optional[float]    # mean white-box detection, scale-mode keys
    eta_kernel: Optional[float]   # mean white-box detection, kernel-mode keys
    trigger_err: Optional[float]  # mean trigger error over keys with triggers


CSV_COLUMNS = ("attack", "param", "acc_before", "acc_after",
               "eta_gamma", "eta_kernel", "trigger_err")


def prune(params, rate, seed):
    """Zero a uniformly random fraction of kernel weight entries.

    Exactly round(rate * pool) entries are zeroed, sampled without
    replacement.  Kernel weights only: biases and normalization parameters
    are not what weight pruning tools remove, and zeroing scales would
    destroy the normalization semantics rather than sparsify the model.
    """
    if not 0.0 <= rate <= 1.0:
        raise ShapeError("pruning rate must be in [0, 1]")
    out = params.clone()
    idx = out.layout.role_index(("kernel",))
    picks = rng_for(seed, "prune").choice(idx.size, size=round(rate * idx.size), replace=False)
    out.vec[idx[picks]] = 0.0
    return out


def finetune(net, params, ds, budgets, lr, seed):
    """Main-task-only SGD from the attacked parameters (no watermark terms).

    The learning rate decays by 1% per epoch.  Returns the parameters after
    each entry of `budgets` epochs, in the given order, all copied out of one
    run of max(budgets) epochs (0 gives a copy of `params`, which is not
    modified).
    """
    net.set_params(params)
    _, kept = sgd_epochs(net, [ds.inputs], [ds.labels], max(budgets, default=0), lr,
                         momentum=0.9, batch=16, stream=(seed, "finetune"), lr_decay=0.99,
                         keep=budgets)
    return kept


def evaluate_attack(net, params, feature_keys, trigger_keys, eval_data):
    """Main accuracy plus per-mode mean detection rates for `params`:
    white-box over `feature_keys`, black-box over `trigger_keys`, each of
    which carries its trigger set."""
    net.set_params(params)
    acc = accuracy(net, eval_data[0], eval_data[1])
    gamma, kernel = [], []
    for key in feature_keys:
        eta = verify_white(params, key).detection_rate
        (gamma if key.mode == "scale" else kernel).append(eta)
    trig = [verify_black(net, key.triggers).trigger_error for key in trigger_keys]
    mean = lambda xs: float(np.mean(xs)) if xs else None
    return acc, mean(gamma), mean(kernel), mean(trig)


def run_attack_suite(m, net, params, feature_keys, trigger_keys, train_ds, eval_data):
    """The attack grid of manifest `m` over a trained model, one report per
    point in grid order: each `attack.prune` rate from the original
    `params`, then each `attack.finetune_epochs` budget, all points of one
    `finetune` run from them."""
    net.set_params(params)
    acc_before = accuracy(net, eval_data[0], eval_data[1])
    budgets = [int(epochs) for epochs in m.attack_finetune_epochs]
    grid = ([("prune", rate, prune(params, rate, m.attack_seed)) for rate in m.attack_prune]
            + [("finetune", epochs, tuned) for epochs, tuned in zip(
                budgets, finetune(net, params, train_ds, budgets, m.attack_finetune_lr,
                                  m.attack_seed))])
    return [AttackReport(attack, float(value), acc_before,
                         *evaluate_attack(net, attacked, feature_keys, trigger_keys, eval_data))
            for attack, value, attacked in grid]


def attack_reports_to_csv(reports, path):
    write_csv(path, CSV_COLUMNS, map(astuple, reports))
