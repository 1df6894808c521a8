import os
import struct

import numpy as np
import pytest

import fedsign.cli
import fedsign.metrics
import fedsign.watermark
from fedsign import io
from fedsign.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_VERIFY_FAILED, main
from fedsign.nn import build_mlp
from fedsign.watermark import WatermarkKey, keygen, save_key

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


@pytest.mark.parametrize("line", ["batch = 0", "rounds = -3", "lr = -0.01", "local_epochs = -1"])
def test_train_out_of_range_key_exits_2(tmp_path, capsys, line):
    manifest, out = write_manifest(tmp_path, MINIMAL.replace("rounds = 5\n", "") + line + "\n")
    assert main(["train", str(manifest)]) == EXIT_INPUT
    assert line.split(" = ")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["beta=-3.0", "beta=nan", "bits=-4 alpha=1.0 triggers=4",
                                  "triggers=-2", "trigger_kind=fgsm"])
def test_train_out_of_range_embed_spec_exits_2(tmp_path, capsys, spec):
    manifest, out = write_manifest(tmp_path, MINIMAL + f"embed.1 = {spec}\n")
    assert main(["train", str(manifest)]) == EXIT_INPUT
    assert "embed.1" in capsys.readouterr().err
    assert not out.exists()


PGD_ON_BLOBS = """
classes = 3
per_class = 60
clients = 2
rounds = 2
out_dir = {out}
embed.0 = mode=scale bits=4 beta=1.0 triggers=5 alpha=1.0 trigger_kind=pgd
"""


def test_train_pgd_triggers_on_blobs_exit_2(tmp_path, capsys):
    """PGD forging does not reach the target class on blobs, so such a
    manifest is bad input, rejected before anything trains."""
    manifest, out = write_manifest(tmp_path, PGD_ON_BLOBS)
    assert main(["train", str(manifest)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "embed.0" in err and "data_kind = images" in err
    assert not out.exists()


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


@pytest.mark.parametrize("radius", [["--eps-h", "-1"], ["--eps-y", "nan"],
                                    ["--eps-y", "-0.5"], ["--eps-y", "7"]])
def test_verify_bad_radius_exits_2(trained, capsys, radius):
    _, out = trained
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(out / "checkpoint.bin"), str(out / "client_0.key"), *radius])
    assert exc.value.code == EXIT_INPUT
    assert radius[0] in capsys.readouterr().err


def test_verify_edge_radii_are_accepted(trained):
    _, out = trained
    for radius in (["--eps-h", "0"], ["--eps-y", "0"], ["--eps-y", "1"]):
        assert main(["verify", str(out / "checkpoint.bin"), str(out / "client_0.key"),
                     *radius]) == EXIT_OK


def test_verify_black_with_foreign_trigger_ref_is_input_error(tmp_path, capsys):
    manifest, out = write_manifest(tmp_path, WITH_TRIGGERS)
    assert main(["train", str(manifest)]) == EXIT_OK
    key = fedsign.watermark.load_key(out / "client_0.key")
    forged = tmp_path / "elsewhere" / "client_0.key"
    forged.parent.mkdir()
    io.save_keyfile(forged, client_id=0, mode="scale", seed=key.seed, bits=key.bits,
                    selector=key.selector, pool_size=key.pool_size,
                    coords=key.coords, trigger_ref="../out/client_0.key.triggers")
    code = main(["verify", str(out / "checkpoint.bin"), str(forged), "--mode", "black"])
    assert code == EXIT_INPUT
    assert "trigger reference" in capsys.readouterr().err


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


BAD_TRIGGERS = {
    "labels-fewer-than-samples": (np.ones((10, 32)), np.zeros(3), "pattern"),
    "0-d-samples": (np.float64(1.0), np.zeros(1), "pattern"),
    "2-d-labels": (np.ones((10, 32)), np.zeros((2, 5)), "pattern"),
    "empty": (np.ones((0, 32)), np.zeros(0), "pattern"),
    "nan-samples": (np.full((10, 32), np.nan), np.zeros(10), "pattern"),
    "unknown-provenance": (np.ones((10, 32)), np.zeros(10), "banana"),
    "label-past-class-count": (np.ones((10, 32)), np.full(10, 99), "pattern"),
    "negative-label": (np.ones((10, 32)), np.full(10, -1), "pattern"),
}


@pytest.mark.parametrize("samples, labels, provenance", BAD_TRIGGERS.values(),
                         ids=list(BAD_TRIGGERS))
def test_malformed_trigger_set_is_input_error(trained, capsys, samples, labels, provenance):
    """An all-NaN set has NaN logits, whose argmax is class 0, so it would
    pass for any client whose target is 0: loading rejects it."""
    _, out = trained
    key = fedsign.watermark.load_key(out / "client_0.key")
    io.save_triggers(out / "bad.triggers", samples, labels, 3,
                     {"provenance": provenance, "eps": "0.0"})
    io.save_keyfile(out / "bad.key", client_id=0, mode="scale", seed=key.seed, bits=key.bits,
                    selector=key.selector, pool_size=key.pool_size,
                    coords=key.coords, trigger_ref="bad.triggers")
    code = main(["verify", str(out / "checkpoint.bin"), str(out / "bad.key"), "--mode", "black"])
    assert code == EXIT_INPUT
    assert main(["info", str(out / "bad.triggers")]) == EXIT_INPUT
    assert "trigger" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(10, 31), (1, 3, 32)])
def test_trigger_set_that_misfits_the_network_is_input_error(trained, capsys, shape):
    _, out = trained
    key = fedsign.watermark.load_key(out / "client_0.key")
    io.save_triggers(out / "wide.triggers", np.ones(shape), np.zeros(shape[0]), 3,
                     {"provenance": "pattern", "eps": "0.0"})
    io.save_keyfile(out / "wide.key", client_id=0, mode="scale", seed=key.seed, bits=key.bits,
                    selector=key.selector, pool_size=key.pool_size,
                    coords=key.coords, trigger_ref="wide.triggers")
    code = main(["verify", str(out / "checkpoint.bin"), str(out / "wide.key"), "--mode", "black"])
    assert code == EXIT_INPUT
    assert "input shape" in capsys.readouterr().err


def _write_keyfile(path, bits, coords=None, matrix=None, mode=None):
    """A keyfile on the 4-channel scale pool of build_mlp(8, [4], 3), its
    mode the one its extractor fits unless given."""
    if mode is None:
        mode = "scale" if coords is not None else "kernel"
    io.save_keyfile(path, client_id=0, mode=mode, seed=0, bits=np.array(bits, np.int8),
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
    "mode-unknown": dict(bits=[1, -1], coords=[0, 1], mode="banana"),
    "kernel-mode-coords": dict(bits=[1, -1], coords=[0, 1], mode="kernel"),
    "scale-mode-matrix": dict(bits=[1, -1], matrix=np.ones((4, 2)), mode="scale"),
}


@pytest.mark.parametrize("fields", MISFIT_KEYS.values(), ids=list(MISFIT_KEYS))
def test_keyfile_extractor_misfit_is_input_error(tmp_path, capsys, fields):
    net = build_mlp(8, [4], 3, seed=0)
    ckpt, key = tmp_path / "ckpt.bin", tmp_path / "bad.key"
    io.save_checkpoint(ckpt, net.descriptor, 0, net.params.entries)
    _write_keyfile(key, **fields)
    assert main(["verify", str(ckpt), str(key)]) == EXIT_INPUT
    assert main(["feasibility", str(key)]) == EXIT_INPUT
    assert main(["info", str(key)]) == EXIT_INPUT
    assert "keyfile" in capsys.readouterr().err


def test_repeated_calls_in_one_process_print_the_same(trained, tmp_path, capsys):
    # the parser is built once per process; every later call must behave as
    # the first did, a bad argument included
    _, out = trained
    keys = [str(tmp_path / f"c{cid}.key") for cid in range(2)]
    for cid, path in enumerate(keys):
        save_key(keygen(build_mlp(32, [16, 16], 3, seed=0), cid, 8, 0, "scale", seed=5), path)
    ckpt, own = str(out / "checkpoint.bin"), str(out / "client_0.key")

    def bad_radius():
        with pytest.raises(SystemExit) as exc:
            main(["verify", ckpt, own, "--eps-h", "-1"])
        return exc.value.code

    calls = [lambda: main(["verify", ckpt, own]), bad_radius,
             lambda: main(["feasibility", *keys])]
    first = []
    for call in calls:
        first.append((call(), capsys.readouterr()))
    assert [code for code, _ in first] == [EXIT_OK, EXIT_INPUT, EXIT_OK]
    for call, want in zip(calls, first):
        assert (call(), capsys.readouterr()) == want


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


def test_feasibility_csv_ends_with_iterations_and_min_norm(tmp_path, capsys):
    net = build_mlp(32, [16, 16], 4, seed=1)
    paths = []
    for cid in range(2):
        p = tmp_path / f"c{cid}.key"
        save_key(keygen(net, cid, 16, 0, "kernel", seed=5), p)
        paths.append(str(p))
    csv_path = tmp_path / "report.csv"
    assert main(["feasibility", *paths, "--csv", str(csv_path)]) == EXIT_OK
    out = capsys.readouterr().out
    header, row = (line.split(",") for line in csv_path.read_text().strip().split("\n"))
    assert header[-3:] == ["total_bits", "iterations", "min_norm"]
    cells = dict(zip(header, row))
    assert cells["total_bits"] == "32"
    assert f"iterations={cells['iterations']} " in out
    assert f"min_norm={float(cells['min_norm']):.3e}" in out


def test_feasibility_conflicting_keys_exit_nonzero(tmp_path, capsys):
    coords = np.array([0, 1])
    a = WatermarkKey(0, np.array([1, -1], dtype=np.int8), ((1, "scale"),), 16, coords=coords)
    b = WatermarkKey(1, np.array([-1, 1], dtype=np.int8), ((1, "scale"),), 16, coords=coords)
    pa, pb = tmp_path / "a.key", tmp_path / "b.key"
    save_key(a, pa)
    save_key(b, pb)
    code = main(["feasibility", str(pa), str(pb)])
    assert code == EXIT_VERIFY_FAILED
    assert "Infeasible" in capsys.readouterr().out


def test_feasibility_near_duplicate_kernel_columns_never_exit_3(tmp_path, capsys):
    """Two columns 1e-8 apart: rounding ends the search, not the command."""
    rng = np.random.default_rng(0)
    u = rng.normal(size=(8, 3))
    u[:, 2] = u[:, 0] + 1e-8 * rng.normal(size=8)
    path = tmp_path / "k.key"
    save_key(WatermarkKey(0, np.ones(3, dtype=np.int8), ((1, "kernel"),), 8, matrix=u), path)
    assert main(["feasibility", str(path)]) in (EXIT_OK, EXIT_VERIFY_FAILED)
    assert "status=" in capsys.readouterr().out


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

SWEEPS = {  # kind -> (values, metric files, rows per raw file)
    "fidelity_bits": ("2,4", ["fidelity_bits"], 1 + 3 * 2),  # + the zero-payload point
    "fidelity_triggers": ("2,4", ["fidelity_triggers"], 1 + 3 * 2),
    "reliability_bits": ("2,4", ["reliability_bits"], 1 + 2 * 2),
    "reliability_triggers": ("2,4", ["reliability_triggers"], 1 + 2 * 2),
    "dp_sigma": ("0.0,0.01", [f"dp_sigma_{m}" for m in ("accuracy", "eta", "trigger_detection")],
                 1 + 2 * 2),
    "fraction": ("0.5,1.0", [f"fraction_{m}" for m in ("accuracy", "eta", "trigger_detection")],
                 1 + 2 * 2),
}


def test_sweep_row_counts(tmp_path, capsys):
    manifest, out = write_manifest(
        tmp_path, MINIMAL + "sweep.kind = reliability_bits\n"
        "sweep.values = 2,4\nsweep.seeds = 2\n")
    assert main(["sweep", str(manifest)]) == EXIT_OK
    raw = (out / "reliability_bits_raw.csv").read_text().strip().split("\n")
    assert len(raw) == 1 + 2 * 2  # header + |grid| x |seeds|
    assert (out / "reliability_bits_summary.csv").exists()


@pytest.mark.parametrize("kind", SWEEPS)
def test_sweep_every_kind_writes_its_files(tmp_path, capsys, kind):
    values, names, n_rows = SWEEPS[kind]
    manifest, out = write_manifest(
        tmp_path, WITH_TRIGGERS + f"sweep.kind = {kind}\nsweep.values = {values}\n"
        "sweep.seeds = 2\n")
    assert main(["sweep", str(manifest)]) == EXIT_OK
    assert sorted(os.listdir(out)) == sorted(f"{n}_{part}.csv" for n in names
                                             for part in ("raw", "summary"))
    for name in names:
        assert len((out / f"{name}_raw.csv").read_text().strip().split("\n")) == n_rows
    heads = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("sweep ")]
    assert len(heads) == len(names)


@pytest.mark.parametrize("kind", SWEEPS)
def test_sweep_without_embed_lines_exits_2_before_training(tmp_path, capsys, kind):
    values = SWEEPS[kind][0]
    manifest, out = write_manifest(
        tmp_path, MINIMAL.replace("embed.0", "# embed.0")
        + f"sweep.kind = {kind}\nsweep.values = {values}\n")
    assert main(["sweep", str(manifest)]) == EXIT_INPUT
    assert "sweep.kind" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["fidelity_bits", "fidelity_triggers",
                                  "reliability_bits", "reliability_triggers"])
def test_sweep_embeds_the_manifest_clients(tmp_path, monkeypatch, kind):
    """Count sweeps resize the signatures of the clients the manifest names."""
    seen = []

    def spy(m, seed):
        seen.append(sorted(m.embed))
        return real(m, seed)

    real = fedsign.metrics.run_once
    monkeypatch.setattr(fedsign.metrics, "run_once", spy)
    manifest, _ = write_manifest(
        tmp_path, MINIMAL.replace("clients = 2", "clients = 4").replace("embed.0", "embed.2")
        + "embed.3 = mode=scale bits=4 beta=1.0\n"
        f"sweep.kind = {kind}\nsweep.values = 2\nsweep.seeds = 1\n")
    assert main(["sweep", str(manifest)]) == EXIT_OK
    assert [2, 3] in seen
    assert all(ids in ([], [2, 3]) for ids in seen)  # [] is fidelity's zero point


@pytest.mark.parametrize("kind, value", [("fraction", "1.5"), ("fraction", "0"),
                                         ("dp_sigma", "-0.01"), ("dp_sigma", "nan")])
def test_sweep_rate_values_out_of_range_exit_2(tmp_path, capsys, kind, value):
    manifest, out = write_manifest(
        tmp_path, MINIMAL + f"sweep.kind = {kind}\nsweep.values = 0.5,{value}\n")
    assert main(["sweep", str(manifest)]) == EXIT_INPUT
    assert "sweep.values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1e400", "2.5"])
def test_sweep_values_that_are_not_counts_exit_2(tmp_path, capsys, value):
    manifest, out = write_manifest(
        tmp_path, MINIMAL + f"sweep.kind = fidelity_bits\nsweep.values = {value}\n")
    assert main(["sweep", str(manifest)]) == EXIT_INPUT
    assert "sweep.values" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_of_zero_rounds_exits_2_before_training(tmp_path, capsys):
    """A sweep reads each point's last round; `train` still runs zero."""
    manifest, out = write_manifest(
        tmp_path, MINIMAL.replace("rounds = 5", "rounds = 0")
        + "sweep.kind = reliability_bits\nsweep.values = 2,4\n")
    assert main(["sweep", str(manifest)]) == EXIT_INPUT
    assert "rounds" in capsys.readouterr().err
    assert not out.exists()
    assert main(["train", str(manifest)]) == EXIT_OK


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

    def broken_decide(ut):
        raise ValueError("shapes do not align")

    monkeypatch.setattr(fedsign.cli, "decide", broken_decide)
    assert main(["feasibility", str(path)]) == EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err
