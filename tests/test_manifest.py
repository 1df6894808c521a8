import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsign.errors import ConfigError
from fedsign.manifest import _EMBED_FIELDS, _KEYS, RunManifest, load_manifest, parse_manifest

FULL = """
# experiment description
arch = mlp
classes = 4
per_class = 250
test_per_class = 100
data_kind = blobs
data_dim = 32
split = noniid
concentration = 0.3
clients = 8
fraction = 0.5
rounds = 60
local_epochs = 2
batch = 16
backdoor_batch = 2
lr = 0.01
momentum = 0.9
lr_decay = 0.99
dp_sigma = 0.003
seed = 7
out_dir = runs/full
embed.0 = mode=scale bits=8 loss=hinge beta=3.0
embed.3 = mode=kernel bits=32 loss=bce beta=3.0 triggers=10 alpha=1.0
attack.prune = 0.1,0.5,0.9
attack.finetune_epochs = 10,50
attack.finetune_lr = 0.0001
sweep.kind = reliability_bits
sweep.values = 4,8,16
sweep.seeds = 5
"""


def test_full_manifest_parses():
    m = parse_manifest(FULL)
    assert m.arch == "mlp" and m.split == "noniid" and m.concentration == 0.3
    assert m.fed.n_clients == 8 and m.fed.fraction == 0.5 and m.fed.dp_sigma == 0.003
    assert m.seed == 7 and m.out_dir == "runs/full"
    assert set(m.embed) == {0, 3}
    assert m.embed[0].mode == "scale" and m.embed[0].beta == 3.0
    assert m.embed[3].loss == "bce" and m.embed[3].n_triggers == 10
    assert m.attack_prune == (0.1, 0.5, 0.9)
    assert m.attack_finetune_epochs == (10, 50)
    assert m.sweep_kind == "reliability_bits" and m.sweep_values == (4.0, 8.0, 16.0)


def test_defaults_without_keys():
    m = parse_manifest("classes = 3")
    assert m.classes == 3
    assert m.fed.rounds == RunManifest().fed.rounds
    assert m.embed == {}


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_manifest("learning_rate = 0.1")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="twice"):
        parse_manifest("seed = 1\nseed = 2")


def test_bad_line_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_manifest("seed = 1\nnot a key value line")


def test_embed_unknown_field_rejected():
    with pytest.raises(ConfigError, match="gamma"):
        parse_manifest("embed.0 = gamma=1.0")


def test_embed_bad_mode_rejected():
    with pytest.raises(ConfigError, match="mode"):
        parse_manifest("embed.0 = mode=activations beta=1.0")


def test_embed_client_out_of_range():
    with pytest.raises(ConfigError, match="no such client"):
        parse_manifest("clients = 2\nembed.5 = beta=1.0")


def test_missing_watermark_spec_rejected():
    with pytest.raises(ConfigError, match="missing watermark spec"):
        parse_manifest("embed.0 = beta=1.0 bits=0")


@pytest.mark.parametrize("spec, key", [("beta=-3.0", "beta"), ("beta=nan", "beta"),
                                       ("beta=inf", "beta"), ("alpha=-1.0 triggers=4", "alpha"),
                                       ("alpha=nan triggers=4", "alpha"),
                                       ("bits=-4 alpha=1.0 triggers=4", "bits"),
                                       ("bits=0", "bits"), ("triggers=-2", "triggers"),
                                       ("trigger_kind=fgsm", "trigger_kind")])
def test_embed_fields_out_of_range_name_the_client(spec, key):
    with pytest.raises(ConfigError, match=f"embed.0.*{key}"):
        parse_manifest(f"embed.0 = {spec}")


def test_embed_fields_in_range_accepted():
    m = parse_manifest("embed.0 = bits=1 triggers=0 alpha=0.0 beta=0.0 trigger_kind=pgd")
    spec = m.embed[0]
    assert (spec.n_bits, spec.n_triggers, spec.alpha, spec.beta) == (1, 0, 0.0, 0.0)
    assert spec.trigger_kind == "pgd"


def test_alpha_needs_triggers():
    with pytest.raises(ConfigError, match="triggers"):
        parse_manifest("embed.0 = alpha=1.0")


def test_bad_sweep_kind_rejected():
    with pytest.raises(ConfigError, match="sweep.kind"):
        parse_manifest("sweep.kind = banana")


@pytest.mark.parametrize("kind", ["fidelity_bits", "fidelity_triggers",
                                  "reliability_bits", "reliability_triggers"])
@pytest.mark.parametrize("value", ["1e400", "2.5", "0", "-4", "nan", "inf"])
def test_count_sweep_values_must_be_whole_counts(kind, value):
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_manifest(f"sweep.kind = {kind}\nsweep.values = 4,{value}")


@pytest.mark.parametrize("kind, value", [("fraction", "1.5"), ("fraction", "0"),
                                         ("fraction", "-0.5"), ("fraction", "nan"),
                                         ("dp_sigma", "-0.01"), ("dp_sigma", "nan"),
                                         ("dp_sigma", "inf")])
def test_rate_sweep_values_must_be_in_range(kind, value):
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_manifest(f"sweep.kind = {kind}\nsweep.values = 0.5,{value}")


def test_count_sweep_accepts_whole_floats_and_rate_sweeps_take_fractions():
    assert parse_manifest("sweep.kind = fidelity_bits\nsweep.values = 4,8.0").sweep_values == (4.0, 8.0)
    assert parse_manifest("sweep.kind = fraction\nsweep.values = 0.25,0.5").sweep_values == (0.25, 0.5)
    assert parse_manifest("sweep.kind = fraction\nsweep.values = 1").sweep_values == (1.0,)
    assert parse_manifest("sweep.kind = dp_sigma\nsweep.values = 0,0.03").sweep_values == (0.0, 0.03)


def test_bad_arch_rejected():
    with pytest.raises(ConfigError, match="arch"):
        parse_manifest("arch = transformer")


@pytest.mark.parametrize("arch,data_kind", [("mlp", "images"), ("cnn", "blobs")])
def test_arch_data_kind_mismatch_names_both_keys(arch, data_kind):
    with pytest.raises(ConfigError, match=f"arch = {arch}.*data_kind = {data_kind}"):
        parse_manifest(f"arch = {arch}\ndata_kind = {data_kind}")


@pytest.mark.parametrize("arch,data_kind", [("mlp", "blobs"), ("cnn", "images")])
def test_arch_data_kind_match_accepted(arch, data_kind):
    m = parse_manifest(f"arch = {arch}\ndata_kind = {data_kind}")
    assert (m.arch, m.data_kind) == (arch, data_kind)


def test_fraction_validated_through_fedconfig():
    with pytest.raises(ConfigError):
        parse_manifest("fraction = 0.0")


@pytest.mark.parametrize("line", [
    "attack.finetune_epochs = 10,-5", "attack.finetune_lr = nan", "attack.finetune_lr = inf",
    "attack.finetune_lr = 0", "attack.finetune_lr = -0.01", "attack.prune = 0.5,1.5",
    "attack.prune = nan", "attack.prune = -0.1", "attack.prune = inf",
])
def test_bad_attack_grid_rejected_by_name(line):
    with pytest.raises(ConfigError, match=line.split(" = ")[0]):
        parse_manifest(line)


def test_attack_grid_edges_accepted():
    m = parse_manifest("attack.prune = 0,1\nattack.finetune_epochs = 0,5,3,5\n"
                       "attack.finetune_lr = 1e-9")
    assert m.attack_prune == (0.0, 1.0) and m.attack_finetune_epochs == (0, 5, 3, 5)


@pytest.mark.parametrize("line,key", [
    ("rounds = -3", "rounds"), ("local_epochs = -1", "local_epochs"), ("batch = 0", "batch"),
    ("backdoor_batch = -2", "backdoor_batch"), ("lr = -0.01", "lr"), ("lr = 0", "lr"),
    ("lr = inf", "lr"), ("lr_decay = -1", "lr_decay"), ("lr_decay = 0", "lr_decay"),
    ("momentum = 1", "momentum"), ("momentum = -0.1", "momentum"), ("momentum = nan", "momentum"),
    ("concentration = nan", "concentration"), ("concentration = 0", "concentration"),
    ("hidden = 16,0", "hidden"), ("channels = -8", "channels"), ("sweep.seeds = 0", "sweep.seeds"),
    ("data_dim = 0", "data_dim"),
])
def test_bad_training_key_rejected_by_name(line, key):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} "):
        parse_manifest(line)


def test_training_key_edges_accepted():
    m = parse_manifest("rounds = 0\nlocal_epochs = 0\nbatch = 1\nbackdoor_batch = 0\n"
                       "momentum = 0\nlr = 1e-9\nlr_decay = 1.5\nconcentration = 1e-3\n"
                       "hidden = 1\nchannels = 1,1\nsweep.seeds = 1")
    assert (m.fed.rounds, m.fed.local_epochs, m.fed.batch, m.fed.backdoor_batch) == (0, 0, 1, 0)
    assert m.fed.momentum == 0.0 and m.hidden == (1,) and m.sweep_seeds == 1


# ---------------------------------------------------------------------------
# hostile input: a manifest or a ConfigError, nothing else

@pytest.mark.parametrize("text", [
    "hidden = inf", "channels = nan", "embed.² = mode=scale",
    "clients = 99999999999999999999", "embed.99999999999999999999 = mode=scale",
    "seed = " + "9" * 5000, "hidden = 16.7,2.2", "attack.finetune_epochs = 0.5",
])
def test_unparseable_values_are_config_errors(text):
    with pytest.raises(ConfigError):
        parse_manifest(text)


def test_non_utf8_manifest_is_config_error(tmp_path):
    path = tmp_path / "bad.manifest"
    path.write_bytes(b"seed = \xff\xfe\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        load_manifest(path)


KEYS = sorted(_KEYS) + ["embed.0", "embed.1", "embed.x", "embed.", "embed.²", "embed.9" * 9]
VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["0", "-1", "1e400", "inf", "nan", "2.5", "3,4", "16,,2", "16.7,2.2", "mlp", "cnn",
                     "9" * 20, "mode=kernel bits=4", "bits=-3 beta=1", "alpha=1 triggers=0"]),
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(
    st.text(max_size=80),
    st.lists(st.tuples(st.sampled_from(KEYS), VALUES), max_size=6).map(
        lambda pairs: "\n".join(f"{k} = {v}" for k, v in pairs)),
))
def test_parse_manifest_returns_a_manifest_or_config_error(text):
    try:
        assert isinstance(parse_manifest(text), RunManifest)
    except ConfigError:
        pass


INT_LISTS = {"hidden": "hidden", "channels": "channels",
             "attack.finetune_epochs": "attack_finetune_epochs"}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(sorted(INT_LISTS)),
       numbers=st.lists(st.one_of(st.integers(-3, 99), st.floats()), min_size=1, max_size=3))
def test_integer_lists_hold_exactly_the_integers_written(key, numbers):
    try:
        m = parse_manifest(f"{key} = {','.join(map(str, numbers))}")
    except ConfigError:
        return
    assert all(type(n) is int for n in numbers)
    assert getattr(m, INT_LISTS[key]) == tuple(numbers)


def test_every_key_and_embed_field_is_documented():
    """docs/FORMATS.md's manifest block lists exactly the parser's keys, and
    its embed lines use exactly the parser's embed fields."""
    text = (Path(__file__).parent.parent / "docs" / "FORMATS.md").read_text()
    block = text.split("# Run manifest", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    pairs = [line.split("=", 1) for line in lines if "=" in line]
    assert {key.strip() for key, _ in pairs if not key.startswith("embed.")} == set(_KEYS)
    fields = {token.split("=", 1)[0] for key, value in pairs if key.startswith("embed.")
              for token in value.split()}
    assert fields == set(_EMBED_FIELDS)
