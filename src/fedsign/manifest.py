"""Flat key=value run manifests.

The manifest is the single experiment description consumed by the CLI
and the sweep harness: dataset recipe, architecture, federated-training
settings, per-client watermark assignments, attack grids and sweep
grids.  Parsing is strict: unknown keys are rejected by name.  The full
schema is documented in docs/FORMATS.md.
"""

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .federation import FedConfig, WatermarkSpec

# sweep.kind -> (axis, metrics it reports); the values of the COUNT_SWEEPS
# are bit or trigger counts, the others' FedConfig rates
SWEEPS = {
    "fidelity_bits": ("bits", ("accuracy",)),
    "fidelity_triggers": ("triggers", ("accuracy",)),
    "reliability_bits": ("bits", ("eta",)),
    "reliability_triggers": ("triggers", ("trigger_detection",)),
    "dp_sigma": ("dp_sigma", ("accuracy", "eta", "trigger_detection")),
    "fraction": ("fraction", ("accuracy", "eta", "trigger_detection")),
}
COUNT_SWEEPS = tuple(kind for kind, (axis, _) in SWEEPS.items() if axis in ("bits", "triggers"))


# A rule is (test, text): a value that fails `test` is rejected as "<key>
# must be <text>".  nan fails every numeric rule.
def _at_least(low):
    return (lambda v: v >= low), f">= {low}"


def _one_of(*allowed):
    return (lambda v: v in allowed), f"one of {allowed}"


_POSITIVE = (lambda v: math.isfinite(v) and v > 0), "finite and > 0"
_NON_NEGATIVE = (lambda v: math.isfinite(v) and v >= 0), "finite and >= 0"
_UNIT = (lambda v: 0.0 <= v <= 1.0), "in [0, 1]"

# manifest key -> (type, is a list, rule for the value or each list entry);
# None: no rule here (FedConfig checks the training keys, make_synthetic the
# sample counts, and _validate the sweep values by sweep.kind)
_KEYS = {
    "arch": (str, False, _one_of("mlp", "cnn")),
    "hidden": (int, True, _at_least(1)),
    "channels": (int, True, _at_least(1)),
    "classes": (int, False, _at_least(2)),
    "per_class": (int, False, None),
    "test_per_class": (int, False, None),
    "data_kind": (str, False, _one_of("blobs", "images")),
    "data_dim": (int, False, _at_least(1)),
    "split": (str, False, _one_of("iid", "noniid")),
    "concentration": (float, False, _POSITIVE),
    "clients": (int, False, None),
    "fraction": (float, False, None),
    "rounds": (int, False, None),
    "local_epochs": (int, False, None),
    "batch": (int, False, None),
    "backdoor_batch": (int, False, None),
    "lr": (float, False, None),
    "momentum": (float, False, None),
    "lr_decay": (float, False, None),
    "dp_sigma": (float, False, None),
    "seed": (int, False, None),
    "out_dir": (str, False, None),
    "attack.prune": (float, True, _UNIT),
    "attack.finetune_epochs": (int, True, _at_least(0)),
    "attack.finetune_lr": (float, False, _POSITIVE),
    "attack.seed": (int, False, None),
    "sweep.kind": (str, False, _one_of(*SWEEPS)),
    "sweep.values": (float, True, None),
    "sweep.seeds": (int, False, _at_least(1)),
}
_FED_KEYS = ("clients", "fraction", "rounds", "local_epochs", "batch", "backdoor_batch",
             "lr", "momentum", "lr_decay", "dp_sigma")

# embed.<id> field -> (WatermarkSpec attribute, type, rule); the defaults
# live in WatermarkSpec
_EMBED_FIELDS = {
    "mode": ("mode", str, _one_of("scale", "kernel")),
    "bits": ("n_bits", int, _at_least(1)),
    "triggers": ("n_triggers", int, _at_least(0)),
    "loss": ("loss", str, _one_of("hinge", "bce")),
    "alpha": ("alpha", float, _NON_NEGATIVE),
    "beta": ("beta", float, _NON_NEGATIVE),
    "trigger_kind": ("trigger_kind", str, _one_of("pattern", "pgd")),
}


@dataclass
class RunManifest:
    arch: str = "mlp"
    hidden: tuple = (16, 16)
    channels: tuple = (8, 16)
    classes: int = 4
    per_class: int = 250
    test_per_class: int = 100
    data_kind: str = "blobs"
    data_dim: int = 32
    split: str = "iid"
    concentration: float = 0.5
    seed: int = 0
    out_dir: str = "runs/out"
    fed: FedConfig = field(default_factory=FedConfig)
    embed: dict = field(default_factory=dict)  # client id -> WatermarkSpec
    attack_prune: tuple = ()
    attack_finetune_epochs: tuple = ()
    attack_finetune_lr: float = 1e-4
    attack_seed: int = 0
    sweep_kind: str = ""
    sweep_values: tuple = ()
    sweep_seeds: int = 5

    def with_fed(self, **kw):
        return replace(self, fed=replace(self.fed, **kw))


def _check(key, value, rule):
    if rule is not None and not rule[0](value):
        raise ConfigError(f"{key} must be {rule[1]}, got {value!r}")
    return value


def _parse_value(key, raw, kind, rule=None):
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"manifest key {key!r}: cannot parse {raw!r}") from None
    if kind is int and not -2**63 <= value < 2**63:
        raise ConfigError(f"manifest key {key!r}: {raw!r} does not fit in 64 bits")
    return _check(key, value, rule)


def _parse_list(key, raw, kind, rule):
    """Comma-separated values, each parsed as `kind` and meeting `rule`."""
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_parse_value(key, part.strip(), kind, rule) for part in raw.split(","))


def _parse_embed(key, raw):
    spec = {}
    for token in raw.split():
        if "=" not in token:
            raise ConfigError(f"manifest key {key!r}: expected field=value, got {token!r}")
        name, value = token.split("=", 1)
        if name not in _EMBED_FIELDS:
            raise ConfigError(f"manifest key {key!r}: unknown field {name!r}")
        spec[name] = _parse_value(key, value, _EMBED_FIELDS[name][1])
    ws = WatermarkSpec(**{_EMBED_FIELDS[name][0]: value for name, value in spec.items()})
    # the rules that span fields go first: "beta=1 bits=0" is a missing spec
    if ws.beta > 0 and ws.n_bits < 1:
        raise ConfigError(f"{key}: missing watermark spec (bits >= 1 required)")
    if ws.alpha > 0 and ws.n_triggers < 1:
        raise ConfigError(f"{key}: alpha > 0 needs triggers >= 1")
    for name, value in spec.items():
        _check(f"{key}: {name}", value, _EMBED_FIELDS[name][2])
    return ws


def parse_manifest(text):
    values = {}
    embed = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"manifest line {lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key.startswith("embed."):
            suffix = key[len("embed."):]
            if not (suffix.isascii() and suffix.isdigit()):
                raise ConfigError(f"manifest key {key!r}: client id must be an integer")
            embed[_parse_value(key, suffix, int)] = _parse_embed(key, raw)
        elif key in _KEYS:
            if key in values:
                raise ConfigError(f"manifest key {key!r} appears twice")
            kind, is_list, rule = _KEYS[key]
            values[key] = (_parse_list if is_list else _parse_value)(key, raw, kind, rule)
        else:
            raise ConfigError(f"unknown manifest key {key!r}")

    fed_kw = {("n_clients" if k == "clients" else k): v
              for k, v in values.items() if k in _FED_KEYS}
    m = RunManifest(**{k.replace(".", "_"): v for k, v in values.items()
                       if k not in _FED_KEYS},
                    fed=FedConfig(**fed_kw), embed=embed)
    _validate(m)
    return m


def _validate(m):
    """The rules that span several keys."""
    expected = "images" if m.arch == "cnn" else "blobs"
    if m.data_kind != expected:
        raise ConfigError(f"arch = {m.arch} needs data_kind = {expected}, "
                          f"got data_kind = {m.data_kind}")
    if m.sweep_kind in COUNT_SWEEPS:
        for v in m.sweep_values:
            if not (math.isfinite(v) and v == int(v) and v >= 1):
                raise ConfigError(f"sweep.values of sweep.kind = {m.sweep_kind} must be "
                                  f"whole counts >= 1, got {v!r}")
    elif m.sweep_kind:
        for v in m.sweep_values:
            try:
                m.with_fed(**{m.sweep_kind: v})  # FedConfig range-checks each rate
            except ConfigError as exc:
                raise ConfigError(f"sweep.values: {exc}") from None
    for cid, spec in m.embed.items():
        if not 0 <= cid < m.fed.n_clients:
            raise ConfigError(f"embed.{cid}: no such client (clients = {m.fed.n_clients})")
        if spec.trigger_kind == "pgd" and spec.n_triggers >= 1 and m.data_kind != "images":
            # on blobs, PGD's bounded path cannot reach the target class
            raise ConfigError(f"embed.{cid}: trigger_kind = pgd needs data_kind = images, "
                              f"got data_kind = {m.data_kind}")


def load_manifest(path):
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError:
            raise ConfigError(f"manifest {path} is not UTF-8 text") from None
    return parse_manifest(text)
