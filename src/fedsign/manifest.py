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

_SCALARS = {
    "arch": str,
    "hidden": int,
    "channels": int,
    "classes": int,
    "per_class": int,
    "test_per_class": int,
    "data_kind": str,
    "data_dim": int,
    "split": str,
    "concentration": float,
    "clients": int,
    "fraction": float,
    "rounds": int,
    "local_epochs": int,
    "batch": int,
    "backdoor_batch": int,
    "lr": float,
    "momentum": float,
    "lr_decay": float,
    "dp_sigma": float,
    "seed": int,
    "out_dir": str,
    "attack.prune": float,
    "attack.finetune_epochs": int,
    "attack.finetune_lr": float,
    "attack.seed": int,
    "sweep.kind": str,
    "sweep.values": float,
    "sweep.seeds": int,
}
_LISTS = ("hidden", "channels", "attack.prune", "attack.finetune_epochs", "sweep.values")
_FED_KEYS = ("clients", "fraction", "rounds", "local_epochs", "batch", "backdoor_batch",
             "lr", "momentum", "lr_decay", "dp_sigma", "seed")  # "seed" also sets RunManifest.seed

# embed.<id> field -> (WatermarkSpec attribute, type); the defaults live in WatermarkSpec
_EMBED_FIELDS = {
    "mode": ("mode", str),
    "bits": ("n_bits", int),
    "triggers": ("n_triggers", int),
    "loss": ("loss", str),
    "alpha": ("alpha", float),
    "beta": ("beta", float),
    "trigger_kind": ("trigger_kind", str),
}

SWEEP_KINDS = ("fidelity_bits", "fidelity_triggers", "reliability_bits",
               "reliability_triggers", "dp_sigma", "fraction")
COUNT_SWEEPS = SWEEP_KINDS[:4]  # their values are bit or trigger counts


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


def _parse_value(key, raw, kind):
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"manifest key {key!r}: cannot parse {raw!r}") from None
    if kind is int and not -2**63 <= value < 2**63:
        raise ConfigError(f"manifest key {key!r}: {raw!r} does not fit in 64 bits")
    return value


def _parse_list(key, raw, kind):
    """Comma-separated values, each parsed as `kind`."""
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_parse_value(key, part.strip(), kind) for part in raw.split(","))


def _parse_embed(key, raw):
    spec = {}
    for token in raw.split():
        if "=" not in token:
            raise ConfigError(f"manifest key {key!r}: expected field=value, got {token!r}")
        name, value = token.split("=", 1)
        if name not in _EMBED_FIELDS:
            raise ConfigError(f"manifest key {key!r}: unknown field {name!r}")
        attr, kind = _EMBED_FIELDS[name]
        spec[attr] = _parse_value(key, value, kind)
    ws = WatermarkSpec(**spec)
    for name, value, allowed in (("mode", ws.mode, ("scale", "kernel")),
                                 ("loss", ws.loss, ("hinge", "bce")),
                                 ("trigger_kind", ws.trigger_kind, ("pattern", "pgd"))):
        if value not in allowed:
            raise ConfigError(f"manifest key {key!r}: bad {name} {value!r}")
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
        elif key in _SCALARS:
            if key in values:
                raise ConfigError(f"manifest key {key!r} appears twice")
            parse = _parse_list if key in _LISTS else _parse_value
            values[key] = parse(key, raw, _SCALARS[key])
        else:
            raise ConfigError(f"unknown manifest key {key!r}")

    fed_kw = {("n_clients" if k == "clients" else k): v
              for k, v in values.items() if k in _FED_KEYS}
    m = RunManifest(**{k.replace(".", "_"): v for k, v in values.items()
                       if k not in _FED_KEYS or k == "seed"},
                    fed=FedConfig(**fed_kw), embed=embed)
    _validate(m)
    return m


def _validate(m):
    if m.arch not in ("mlp", "cnn"):
        raise ConfigError(f"arch must be mlp or cnn, got {m.arch!r}")
    if m.data_kind not in ("blobs", "images"):
        raise ConfigError(f"data_kind must be blobs or images, got {m.data_kind!r}")
    expected = "images" if m.arch == "cnn" else "blobs"
    if m.data_kind != expected:
        raise ConfigError(f"arch = {m.arch} needs data_kind = {expected}, "
                          f"got data_kind = {m.data_kind}")
    if m.split not in ("iid", "noniid"):
        raise ConfigError(f"split must be iid or noniid, got {m.split!r}")
    if m.classes < 2:
        raise ConfigError("classes must be >= 2")
    fed = m.fed
    for key, value, least in (("rounds", fed.rounds, 0), ("local_epochs", fed.local_epochs, 0),
                              ("batch", fed.batch, 1), ("backdoor_batch", fed.backdoor_batch, 0),
                              ("sweep.seeds", m.sweep_seeds, 1)):
        if value < least:
            raise ConfigError(f"{key} must be >= {least}, got {value!r}")
    for key, value in (("lr", fed.lr), ("lr_decay", fed.lr_decay),
                       ("concentration", m.concentration)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{key} must be finite and > 0, got {value!r}")
    if not 0.0 <= fed.momentum < 1.0:
        raise ConfigError(f"momentum must lie in [0, 1), got {fed.momentum!r}")
    for key, widths in (("hidden", m.hidden), ("channels", m.channels)):
        if any(n < 1 for n in widths):
            raise ConfigError(f"{key} widths must be >= 1, got {widths!r}")
    if m.sweep_kind and m.sweep_kind not in SWEEP_KINDS:
        raise ConfigError(f"sweep.kind must be one of {SWEEP_KINDS}, got {m.sweep_kind!r}")
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
                raise ConfigError(f"sweep.values: {exc}, got {v!r}") from None
    for rate in m.attack_prune:
        if not 0.0 <= rate <= 1.0:  # nan fails too
            raise ConfigError(f"attack.prune rates must lie in [0, 1], got {rate!r}")
    for epochs in m.attack_finetune_epochs:
        if epochs < 0:
            raise ConfigError(f"attack.finetune_epochs must be whole counts >= 0, got {epochs!r}")
    if not (math.isfinite(m.attack_finetune_lr) and m.attack_finetune_lr > 0):
        raise ConfigError(f"attack.finetune_lr must be finite and > 0, got {m.attack_finetune_lr!r}")
    for cid, spec in m.embed.items():
        if not 0 <= cid < m.fed.n_clients:
            raise ConfigError(f"embed.{cid}: no such client (clients = {m.fed.n_clients})")
        if spec.beta > 0 and spec.n_bits < 1:
            raise ConfigError(f"embed.{cid}: missing watermark spec (bits >= 1 required)")
        for name, value in (("alpha", spec.alpha), ("beta", spec.beta)):
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"embed.{cid}: {name} must be finite and >= 0, got {value!r}")
        for name, value, least in (("bits", spec.n_bits, 1), ("triggers", spec.n_triggers, 0)):
            if value < least:
                raise ConfigError(f"embed.{cid}: {name} must be >= {least}, got {value!r}")
        if spec.alpha > 0 and spec.n_triggers < 1:
            raise ConfigError(f"embed.{cid}: alpha > 0 needs triggers >= 1")


def load_manifest(path):
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError:
            raise ConfigError(f"manifest {path} is not UTF-8 text") from None
    return parse_manifest(text)
