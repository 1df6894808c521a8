import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsign import io
from fedsign.data import TriggerSet, make_synthetic
from fedsign.errors import FormatError
from fedsign.nn import build_cnn, build_mlp, rng_for
from fedsign.watermark import keygen, save_key


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = rng_for("ckpt")
    entries = {
        (0, "kernel"): rng.normal(size=(3, 3, 1, 4)),
        (0, "bias"): np.array([0.0, -0.0, 1e-308, np.pi]),
        (1, "scale"): rng.normal(size=4),
    }
    path = tmp_path / "model.bin"
    io.save_checkpoint(path, "cnn:8x8x1:4:3", 42, entries)
    descriptor, seed, back = io.load_checkpoint(path)
    assert descriptor == "cnn:8x8x1:4:3" and seed == 42
    assert back.keys() == entries.keys()
    for k in entries:
        assert entries[k].shape == back[k].shape
        assert np.array_equal(entries[k].view(np.uint64), back[k].view(np.uint64))


def test_checkpoint_bytes_deterministic(tmp_path):
    net = build_cnn(8, 1, [4], 3, seed=5)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    io.save_checkpoint(a, net.descriptor, 7, net.get_params().entries)
    io.save_checkpoint(b, net.descriptor, 7, net.get_params().entries)
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(FormatError):
        io.load_checkpoint(path)


def test_wrong_tag_rejected(tmp_path):
    path = tmp_path / "trig.bin"
    io.save_triggers(path, np.zeros((2, 3)), np.array([0, 1]), 2)
    with pytest.raises(FormatError):
        io.load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "model.bin"
    io.save_checkpoint(path, "mlp:4:4:2", 0, {(0, "bias"): np.zeros(4)})
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(FormatError):
        io.load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.bin"
    io.save_checkpoint(path, "mlp:4:4:2", 0, {(0, "bias"): np.zeros(4)})
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(FormatError):
        io.load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "model.bin"
    io.save_checkpoint(path, "mlp:4:4:2", 0, {})
    data = bytearray(path.read_bytes())
    data[12] = 99  # version byte
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        io.load_checkpoint(path)


def test_keyfile_requires_exactly_one_extractor_payload(tmp_path):
    path = tmp_path / "k.key"
    with pytest.raises(FormatError):
        io.save_keyfile(path, client_id=0, mode="scale", seed=1,
                        bits=np.array([1], dtype=np.int8), selector=(),
                        pool_size=1)  # neither coords nor matrix
    with pytest.raises(FormatError):
        io.save_keyfile(path, client_id=0, mode="scale", seed=1,
                        bits=np.array([1], dtype=np.int8), selector=(),
                        pool_size=1, coords=np.array([0]), matrix=np.eye(1))


def test_trigger_meta_roundtrip(tmp_path):
    path = tmp_path / "t.bin"
    io.save_triggers(path, np.ones((3, 2)), np.array([0, 1, 0]), 2,
                     {"kind": "blobs", "note": "x"})
    samples, labels, classes, meta = io.load_triggers(path)
    assert classes == 2
    assert meta == {"kind": "blobs", "note": "x"}


# ---------------------------------------------------------------------------
# atomic, private writes

def _tiny_key(with_triggers):
    ds = make_synthetic(4, 30, seed=2)
    net = build_mlp(32, [16, 16], 4, seed=3)
    return keygen(net, 1, 8, 6 if with_triggers else 0, "scale", seed=5, dataset=ds)


def test_secret_files_are_private_from_creation_under_umask_zero(tmp_path, monkeypatch):
    """Keyfiles and their trigger sets carry no group/other bits at any
    moment: checked on the open temp file once all bytes are written."""
    real_fsync = os.fsync
    seen = []

    def checking_fsync(fd):
        seen.append(os.fstat(fd).st_mode & 0o777)
        real_fsync(fd)

    monkeypatch.setattr(io.os, "fsync", checking_fsync)
    old = os.umask(0)
    try:
        save_key(_tiny_key(with_triggers=True), tmp_path / "c.key")
        io.save_checkpoint(tmp_path / "model.bin", "mlp:4:4:2", 0, {})
    finally:
        os.umask(old)
    assert seen == [0o600, 0o600, 0o644]  # triggers, keyfile, checkpoint
    assert os.stat(tmp_path / "c.key").st_mode & 0o777 == 0o600
    assert os.stat(tmp_path / "c.key.triggers").st_mode & 0o777 == 0o600
    assert os.stat(tmp_path / "model.bin").st_mode & 0o777 == 0o644


def test_failed_write_keeps_old_target_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "model.bin"
    io.save_checkpoint(path, "mlp:4:4:2", 0, {(0, "bias"): np.zeros(4)})
    before = path.read_bytes()

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(io.os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        io.save_checkpoint(path, "mlp:4:4:2", 1, {(0, "bias"): np.ones(4)})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.bin"]


def test_write_atomic_replaces_whole_file(tmp_path):
    path = tmp_path / "rows.csv"
    io.write_atomic(path, "a,b\n" * 1000)
    io.write_atomic(path, "c\n")
    assert path.read_text() == "c\n"
    assert os.listdir(tmp_path) == ["rows.csv"]


def test_write_csv_cells_and_line_endings(tmp_path):
    """None is empty, a float (np.float64 too) its repr, anything else its
    str; every line ends in LF."""
    path = tmp_path / "t.csv"
    io.write_csv(path, ("a", "b", "c", "d", "e"),
                 [(None, 0.1, np.float64(1e-17), 7, "x;y"), (1.0, None, np.float64(2), 0, "")])
    assert path.read_bytes() == b"a,b,c,d,e\n,0.1,1e-17,7,x;y\n1.0,,2.0,0,\n"


# ---------------------------------------------------------------------------
# hostile input: a value or a FormatError, nothing else

def _array_header(*dims):
    return struct.pack("<I", len(dims)) + b"".join(struct.pack("<q", d) for d in dims)


def test_negative_array_dims_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(io.MAGIC + io.TAG_TRIGGERS + struct.pack("<II", 1, 2) + _array_header(-1, -1))
    with pytest.raises(FormatError, match="negative"):
        io.load_triggers(path)


@pytest.mark.parametrize("dims", [(2**62, 2**62), (0, 2**62, 2**62), (1,) * 70, (10**6,)])
def test_oversized_array_dims_rejected(tmp_path, dims):
    path = tmp_path / "bad.bin"
    path.write_bytes(io.MAGIC + io.TAG_TRIGGERS + struct.pack("<II", 1, 2) + _array_header(*dims))
    with pytest.raises(FormatError):
        io.load_triggers(path)


def test_invalid_utf8_string_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(io.MAGIC + io.TAG_CHECKPOINT + struct.pack("<II", 1, 2) + b"\xff\xfe")
    with pytest.raises(FormatError, match="UTF-8"):
        io.load_checkpoint(path)


def _valid_artifacts():
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("c", "k", "t")]
        io.save_checkpoint(paths[0], "mlp:2:2:2", 3, {(0, "bias"): np.arange(2.0)})
        io.save_keyfile(paths[1], client_id=1, mode="kernel", seed=2,
                        bits=np.array([1, -1], dtype=np.int8), selector=((0, "kernel"),),
                        pool_size=2, matrix=np.eye(2), trigger_ref="x")
        io.save_triggers(paths[2], np.ones((1, 3)), np.array([1]), 2, {"eps": "0.1"})
        return [open(p, "rb").read() for p in paths]


def _trigger_bytes(labels, class_count):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t")
        io.save_triggers(path, np.ones((len(labels), 3)), np.array(labels), class_count, {})
        return open(path, "rb").read()


VALID = _valid_artifacts()
LOADERS = (io.load_checkpoint, io.load_keyfile, io.load_triggers, TriggerSet.load)


@st.composite
def hostile_bytes(draw):
    """Raw bytes, an envelope with a random tail, a valid artifact with
    overwritten bytes and an optional truncation, or a well-formed trigger
    set whose labels may lie outside [0, class_count)."""
    kind = draw(st.sampled_from(("raw", "envelope", "mutated", "labels")))
    if kind == "labels":
        return _trigger_bytes(draw(st.lists(st.integers(-2, 5), min_size=1, max_size=4)),
                              draw(st.integers(0, 3)))
    if kind == "raw":
        return draw(st.binary(max_size=64))
    if kind == "envelope":
        tag = draw(st.sampled_from((io.TAG_CHECKPOINT, io.TAG_KEYFILE, io.TAG_TRIGGERS)))
        return io.MAGIC + tag + struct.pack("<I", io.FORMAT_VERSION) + draw(st.binary(max_size=96))
    data = bytearray(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(16, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data[:draw(st.integers(16, len(data)))])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=hostile_bytes())
def test_loaders_return_a_value_or_format_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact.bin")
        with open(path, "wb") as f:
            f.write(data)
        for load in LOADERS:
            try:
                loaded = load(path)
            except FormatError:
                continue
            if isinstance(loaded, TriggerSet):
                labels = loaded.target_labels
                assert 0 <= labels.min() <= labels.max() < loaded.class_count
