"""Workload recipes: each turns a benchmark seed into a fedsign manifest.

The manifest seed and the attack seed are the benchmark seed, so the
same seed gives the same data, shards, network, keys and attack draws.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    body: str                  # manifest lines without seed, rounds and out_dir
    rounds: int
    require_features: bool     # every feature key must verify
    require_triggers: bool     # every trigger key must verify (black box)

    def manifest(self, seed, out_dir, rounds=None):
        rounds = self.rounds if rounds is None else rounds
        return (f"{self.body}\nseed = {seed}\nattack.seed = {seed}\n"
                f"rounds = {rounds}\nout_dir = {out_dir}\n")


def _embeds(specs):
    return "\n".join(f"embed.{cid} = {spec}" for cid, spec in enumerate(specs))


SCALE_HINGE = "mode=scale bits=8 loss=hinge beta=3.0"
PATTERN = "mode=scale bits=8 triggers=10 alpha=1.0"
PGD = PATTERN + " trigger_kind=pgd"

# The reference desk-scale run of manifests/demo.manifest.
MLP_DEMO = Workload(
    "mlp-demo",
    "\n".join([
        "classes = 4", "per_class = 250", "test_per_class = 250", "clients = 8",
        _embeds([SCALE_HINGE, SCALE_HINGE,
                 "mode=kernel bits=32 loss=bce beta=3.0",
                 "mode=kernel bits=32 loss=bce beta=3.0",
                 PATTERN, PATTERN]),
        "attack.prune = 0.1,0.3,0.5,0.7,0.9",
        "attack.finetune_epochs = 10,30,50",
        "attack.finetune_lr = 0.0001",
    ]),
    rounds=60, require_features=True, require_triggers=True)

# Conv/pool kernels in every step, a 40-epoch vanilla fit and PGD forging
# in set-up, 1152-entry kernel keys, client sampling and upload noise.
# 25-sample shards with 4 local epochs take as many local steps per round
# as 50-sample shards with 2, at half the cost of the vanilla fit.
CNN_PGD = Workload(
    "cnn-pgd",
    "\n".join([
        "arch = cnn", "data_kind = images", "channels = 8,16",
        "classes = 4", "per_class = 50", "test_per_class = 50", "clients = 8",
        "local_epochs = 4", "fraction = 0.5", "dp_sigma = 0.003",
        _embeds([SCALE_HINGE, SCALE_HINGE,
                 "mode=kernel bits=64 loss=bce beta=3.0",
                 "mode=kernel bits=64 loss=bce beta=3.0",
                 PGD, PGD]),
        "attack.prune = 0.3,0.6",
        "attack.finetune_epochs = 30,60",
        "attack.finetune_lr = 0.0001",
    ]),
    rounds=40, require_features=True, require_triggers=False)

# Sixteen ragged non-IID clients with sampling and noise, twelve kernel
# keys of 64 bits (768 bits on the 256-entry pool, 3x capacity), so
# detection below 1 is expected and feasibility ends on the Gordan
# infeasibility branch.  Dirichlet(1.0) shards and four local epochs keep
# the final accuracy of every seed near 0.97; with Dirichlet(0.5) and two
# epochs it ranged from 0.81 to 0.97 over seeds 1-10.
MLP_CROWDED = Workload(
    "mlp-crowded",
    "\n".join([
        "classes = 4", "per_class = 250", "test_per_class = 250", "clients = 16",
        "split = noniid", "concentration = 1.0", "local_epochs = 4",
        "fraction = 0.5", "dp_sigma = 0.003",
        _embeds(["mode=kernel bits=64 loss=bce beta=3.0"] * 12 + [PATTERN, PATTERN]),
        "attack.prune = 0.1,0.5,0.9",
        "attack.finetune_epochs = 20,40,60",
        "attack.finetune_lr = 0.0001",
    ]),
    rounds=60, require_features=False, require_triggers=False)

WORKLOADS = {w.name: w for w in (MLP_DEMO, CNN_PGD, MLP_CROWDED)}
