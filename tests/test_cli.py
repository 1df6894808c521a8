import os
import struct

import numpy as np
import pytest

import fedsign.cli
from fedsign import io
from fedsign.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_VERIFY_FAILED, main
from fedsign.nn import build_mlp
from fedsign.watermark import ExtractionKey, WatermarkKey, keygen, save_key

MINIMAL = """
classes = 3
per_class = 40
test_per_class = 20
clients = 2
rounds = 5
seed = 11
out_dir = {out}
embed.0 = mode=scale bits=8 loss=hinge beta=3.0
"""

WITH_TRIGGERS = """
classes = 3
per_class = 40
test_per_class = 20
clients = 2
rounds = 8
seed = 11
out_dir = {out}
embed.0 = mode=scale bits=8 beta=3.0 triggers=5 alpha=1.0
"""


def write_manifest(tmp_path, template, name="run.manifest", **kw):
    out = tmp_path / kw.pop("out", "out")
    path = tmp_path / name
    path.write_text(template.format(out=out, **kw))
    return path, out


@pytest.fixture()
def trained(tmp_path):
    manifest, out = write_manifest(tmp_path, MINIMAL)
    assert main(["train", str(manifest)]) == EXIT_OK
    return manifest, out


# ---------------------------------------------------------------------------
# train

def test_train_writes_three_artifacts(trained):
    _, out = trained
    names = sorted(os.listdir(out))
    assert names == ["checkpoint.bin", "client_0.key", "rounds.csv"]


def test_train_rerun_is_bitwise_identical(tmp_path):
    import time
    manifest, out = write_manifest(tmp_path, MINIMAL)
    start = time.time()
    assert main(["train", str(manifest)]) == EXIT_OK
    assert time.time() - start < 10  # smoke-scale run stays interactive
    first = {n: (out / n).read_bytes() for n in os.listdir(out)}
    assert main(["train", str(manifest)]) == EXIT_OK
    second = {n: (out / n).read_bytes() for n in os.listdir(out)}
    assert first == second


def test_train_invalid_manifest_names_offending_key(tmp_path, capsys):
    path = tmp_path / "bad.manifest"
    path.write_text("clients = 2\nembed.0 = beta=1.0 bits=0\n")
    assert main(["train", str(path)]) == EXIT_INPUT
    assert "missing watermark spec" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify

def test_verify_own_key_passes(trained, capsys):
    _, out = trained
    code = main(["verify", str(out / "checkpoint.bin"), str(out / "client_0.key")])
    assert code == EXIT_OK
    assert "detection_rate=1.0000" in capsys.readouterr().out


def test_verify_foreign_key_fails_at_chance(tmp_path, trained, capsys):
    _, out = trained
    net = build_mlp(32, [16, 16], 3, seed=0)
    foreign = keygen(net, 0, 32, 0, "kernel", seed=977)
    fpath = tmp_path / "foreign.key"
    save_key(foreign, fpath)
    code = main(["verify", str(out / "checkpoint.bin"), str(fpath)])
    assert code == EXIT_VERIFY_FAILED
    text = capsys.readouterr().out
    rate = float(text.split("detection_rate=")[1].split()[0])
    assert 0.2 <= rate <= 0.8


def test_verify_black_and_both_modes(tmp_path, capsys):
    manifest, out = write_manifest(tmp_path, WITH_TRIGGERS)
    assert main(["train", str(manifest)]) == EXIT_OK
    code = main(["verify", str(out / "checkpoint.bin"), str(out / "client_0.key"),
                 "--mode", "both"])
    text = capsys.readouterr().out
    assert "mode=white" in text and "mode=black" in text
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED)


def test_verify_black_without_triggers_is_input_error(trained, capsys):
    _, out = trained
    code = main(["verify", str(out / "checkpoint.bin"), str(out / "client_0.key"),
                 "--mode", "black"])
    assert code == EXIT_INPUT
    assert "trigger" in capsys.readouterr().err


def test_verify_corrupt_checkpoint_is_input_error(tmp_path, trained, capsys):
    _, out = trained
    bad = tmp_path / "corrupt.bin"
    bad.write_bytes(b"garbage header" + b"\x00" * 40)
    code = main(["verify", str(bad), str(out / "client_0.key")])
    assert code == EXIT_INPUT


def test_verify_mismatched_pool_is_input_error(tmp_path, trained, capsys):
    _, out = trained
    net = build_mlp(8, [4], 3, seed=0)  # different architecture: pool 4
    key = keygen(net, 0, 2, 0, "scale", seed=3)
    path = tmp_path / "mismatch.key"
    save_key(key, path)
    code = main(["verify", str(out / "checkpoint.bin"), str(path)])
    assert code == EXIT_INPUT


def _write_keyfile(path, bits, coords=None, matrix=None):
    """A scale keyfile on the 4-channel pool of build_mlp(8, [4], 3)."""
    io.save_keyfile(path, client_id=0, mode="scale", seed=0, bits=np.array(bits, np.int8),
                    selector=((1, "scale"),), pool_size=4,
                    coords=None if coords is None else np.array(coords),
                    matrix=matrix)


MISFIT_KEYS = {
    "coord-past-pool": dict(bits=[1, -1], coords=[0, 9]),
    "negative-coord": dict(bits=[1, -1], coords=[-1, 2]),
    "repeated-coord": dict(bits=[1, -1], coords=[2, 2]),
    "fewer-coords-than-bits": dict(bits=[1, -1, 1], coords=[0, 1]),
    "matrix-rows-not-pool": dict(bits=[1, -1], matrix=np.ones((3, 2))),
    "matrix-cols-not-bits": dict(bits=[1, -1], matrix=np.ones((4, 3))),
    "matrix-not-finite": dict(bits=[1, -1], matrix=np.full((4, 2), np.nan)),
    "bit-not-sign": dict(bits=[1, 0], coords=[0, 1]),
}


@pytest.mark.parametrize("fields", MISFIT_KEYS.values(), ids=list(MISFIT_KEYS))
def test_keyfile_extractor_misfit_is_input_error(tmp_path, capsys, fields):
    net = build_mlp(8, [4], 3, seed=0)
    ckpt, key = tmp_path / "ckpt.bin", tmp_path / "bad.key"
    io.save_checkpoint(ckpt, net.descriptor, 0, net.params.entries)
    _write_keyfile(key, **fields)
    assert main(["verify", str(ckpt), str(key)]) == EXIT_INPUT
    assert main(["feasibility", str(key)]) == EXIT_INPUT
    assert "keyfile" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# feasibility

def test_feasibility_disjoint_keys_exit_ok(tmp_path, capsys):
    net = build_mlp(32, [16, 16], 4, seed=1)
    paths = []
    for cid in range(3):
        key = keygen(net, cid, 8, 0, "scale", seed=5)
        p = tmp_path / f"c{cid}.key"
        save_key(key, p)
        paths.append(str(p))
    csv_path = tmp_path / "report.csv"
    code = main(["feasibility", *paths, "--csv", str(csv_path)])
    assert code == EXIT_OK
    assert "Feasible" in capsys.readouterr().out
    header, row = csv_path.read_text().strip().split("\n")
    assert header.startswith("cond_rank,")
    assert ",feasible," in row


def test_feasibility_conflicting_keys_exit_nonzero(tmp_path, capsys):
    coords = np.array([0, 1])
    ex = ExtractionKey(((1, "scale"),), 16, coords=coords)
    a = WatermarkKey(0, np.array([1, -1], dtype=np.int8), ex, None)
    b = WatermarkKey(1, np.array([-1, 1], dtype=np.int8), ex, None)
    pa, pb = tmp_path / "a.key", tmp_path / "b.key"
    save_key(a, pa)
    save_key(b, pb)
    code = main(["feasibility", str(pa), str(pb)])
    assert code == EXIT_VERIFY_FAILED
    assert "Infeasible" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# attack

def test_attack_prune_zero_keeps_accuracy(tmp_path, capsys):
    manifest, out = write_manifest(
        tmp_path, MINIMAL + "attack.prune = 0.0\n")
    assert main(["train", str(manifest)]) == EXIT_OK
    assert main(["attack", str(manifest)]) == EXIT_OK
    lines = (out / "attacks.csv").read_text().strip().split("\n")
    cells = lines[1].split(",")
    assert cells[0] == "prune" and cells[2] == cells[3]  # acc unchanged


def test_attack_without_checkpoint_is_input_error(tmp_path, capsys):
    manifest, _ = write_manifest(tmp_path, MINIMAL, name="fresh.manifest",
                                 out="nevertrained")
    code = main(["attack", str(manifest)])
    assert code == EXIT_INPUT
    assert "checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["attack.finetune_epochs = -5", "attack.finetune_lr = nan",
                                  "attack.finetune_lr = -0.01", "attack.prune = 1.5",
                                  "attack.prune = nan"])
def test_attack_bad_grid_exits_2_before_loading(trained, capsys, line):
    manifest, out = trained
    manifest.write_text(manifest.read_text() + line + "\n")
    assert main(["attack", str(manifest)]) == EXIT_INPUT
    assert line.split(" = ")[0] in capsys.readouterr().err
    assert not (out / "attacks.csv").exists()


# ---------------------------------------------------------------------------
# sweep

def test_sweep_row_counts(tmp_path, capsys):
    manifest, out = write_manifest(
        tmp_path, MINIMAL + "sweep.kind = reliability_bits\n"
        "sweep.values = 2,4\nsweep.seeds = 2\n")
    assert main(["sweep", str(manifest)]) == EXIT_OK
    raw = (out / "reliability_bits_raw.csv").read_text().strip().split("\n")
    assert len(raw) == 1 + 2 * 2  # header + |grid| x |seeds|
    assert (out / "reliability_bits_summary.csv").exists()


@pytest.mark.parametrize("value", ["1e400", "2.5"])
def test_sweep_values_that_are_not_counts_exit_2(tmp_path, capsys, value):
    manifest, out = write_manifest(
        tmp_path, MINIMAL + f"sweep.kind = fidelity_bits\nsweep.values = {value}\n")
    assert main(["sweep", str(manifest)]) == EXIT_INPUT
    assert "sweep.values" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_without_kind_is_input_error(tmp_path, capsys):
    manifest, _ = write_manifest(tmp_path, MINIMAL)
    assert main(["sweep", str(manifest)]) == EXIT_INPUT


# ---------------------------------------------------------------------------
# info

def test_info_on_all_artifacts(trained, capsys):
    manifest, out = trained
    assert main(["info", str(out / "checkpoint.bin")]) == EXIT_OK
    assert "checkpoint:" in capsys.readouterr().out
    assert main(["info", str(out / "client_0.key")]) == EXIT_OK
    assert "keyfile: client=0" in capsys.readouterr().out
    assert main(["info", str(manifest)]) == EXIT_OK
    assert "manifest:" in capsys.readouterr().out


def test_info_on_junk_is_input_error(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"\x01\x02\x03")
    assert main(["info", str(path)]) == EXIT_INPUT


# ---------------------------------------------------------------------------
# exit codes: 2 for bad input, 3 for bugs

def test_bad_input_exits_2(tmp_path, capsys):
    manifest = tmp_path / "latin1.manifest"
    manifest.write_bytes(b"seed = 1 # caf\xe9\n")
    assert main(["train", str(manifest)]) == EXIT_INPUT
    assert main(["info", str(tmp_path / "missing.bin")]) == EXIT_INPUT
    ckpt = tmp_path / "neg.bin"
    # version 1, descriptor "ab", seed 0, one record (0, "bias") of shape (-1, -1)
    ckpt.write_bytes(b"FEDSIGN\x00CKPT" + struct.pack("<II", 1, 2) + b"ab"
                     + struct.pack("<qIII", 0, 1, 0, 4) + b"bias" + struct.pack("<Iqq", 2, -1, -1))
    assert main(["info", str(ckpt)]) == EXIT_INPUT
    assert "negative array dimension" in capsys.readouterr().err


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    """A ValueError from library code is a bug, not bad input."""
    net = build_mlp(8, [16], 3, seed=0)
    path = tmp_path / "k.key"
    save_key(keygen(net, 0, 4, 0, "scale", seed=1), path)

    def broken_decide(se):
        raise ValueError("shapes do not align")

    monkeypatch.setattr(fedsign.cli, "decide", broken_decide)
    assert main(["feasibility", str(path)]) == EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err
