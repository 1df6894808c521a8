"""Binary artifact containers (checkpoints, key files, trigger sets) and
the one CSV writer.

All artifacts share one envelope: an 8-byte magic, a 4-byte artifact tag
and a little-endian u32 format version, followed by tag-specific fields.
Integers are little-endian; float payloads are little-endian IEEE-754
float64.  The exact byte layout is documented in docs/FORMATS.md and
round-trips bit-exactly.

Every artifact and CSV is written through `write_atomic`; loaders raise
`FormatError` and nothing else on malformed input.
"""

import math
import mmap
import os
import struct
from io import BufferedReader, BytesIO, FileIO

import numpy as np

from .errors import FormatError

MAGIC = b"FEDSIGN\x00"
FORMAT_VERSION = 1

TAG_CHECKPOINT = b"CKPT"
TAG_KEYFILE = b"KEYF"
TAG_TRIGGERS = b"TRIG"

# An array of this many bytes or more loads into pages of its own, mapped and
# faulted in at once, so that its load costs the same whether or not the heap
# had just returned freed memory to the OS: 0.06 ms for the 590 KB matrix of a
# kernel key on a 1152-entry pool, against 0.01 or 0.08 ms from the heap.
OWN_PAGES_BYTES = 256 * 1024
_OWN_PAGES_FLAGS = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)


# ---------------------------------------------------------------------------
# atomic writes

def write_atomic(path, data, secret=False):
    """Write `data` (bytes, or str as UTF-8) to `path` through a sibling
    temp file created with mode 0600 if `secret` else 0644 (less the
    umask), fsynced and renamed over `path`.  Readers see the old file or
    the whole new one; on failure the temp file is removed."""
    data = data.encode("utf-8") if isinstance(data, str) else data
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600 if secret else 0o644)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Write a LF-terminated CSV table through `write_atomic`.  A cell is
    empty for None, `repr(float(v))` for a float (np.float64 too) and
    `str(v)` otherwise; pass booleans as int."""
    def cell(v):
        return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
    write_atomic(path, "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows]))


# ---------------------------------------------------------------------------
# primitives

def _w_u32(f, v):
    f.write(struct.pack("<I", v))


def _w_i64(f, v):
    f.write(struct.pack("<q", v))


def _w_f64(f, v):
    f.write(struct.pack("<d", v))


def _w_str(f, s):
    data = s.encode("utf-8")
    _w_u32(f, len(data))
    f.write(data)


def _w_arr(f, arr, dtype):
    arr = np.asarray(arr)
    _w_u32(f, arr.ndim)
    for d in arr.shape:
        _w_i64(f, d)
    f.write(arr.astype(dtype).tobytes(order="C"))


class _Reader(BufferedReader):
    """An artifact open for reading, with the count of its bytes not yet read."""

    def __init__(self, path):
        super().__init__(FileIO(path))
        self.left = os.fstat(self.fileno()).st_size


def _take(f, n):
    if n > f.left:
        raise FormatError("truncated artifact file")
    f.left -= n
    return f.read(n)


def _r_u32(f):
    return struct.unpack("<I", _take(f, 4))[0]


def _r_i64(f):
    return struct.unpack("<q", _take(f, 8))[0]


def _r_f64(f):
    return struct.unpack("<d", _take(f, 8))[0]


def _r_str(f):
    try:
        return _take(f, _r_u32(f)).decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("string field is not valid UTF-8") from None


def _r_arr(f, dtype):
    shape = tuple(_r_i64(f) for _ in range(_r_u32(f)))
    if any(d < 0 for d in shape):
        raise FormatError(f"negative array dimension in {shape}")
    # an exact product, checked against the bytes left before anything is
    # allocated; the file is then read straight into the array
    n = math.prod(shape) * np.dtype(dtype).itemsize
    if n > f.left:
        raise FormatError("truncated artifact file")
    try:
        arr = (np.empty(shape, dtype) if n < OWN_PAGES_BYTES else np.frombuffer(
            mmap.mmap(-1, n, flags=_OWN_PAGES_FLAGS), dtype).reshape(shape))
    except ValueError:  # too many dimensions, or an empty array too big to index
        raise FormatError(f"unsupported array shape {shape}") from None
    f.left -= f.readinto(arr.reshape(-1).view(np.uint8))
    return arr


def _check_envelope(f, expect_tag):
    """Read and check the envelope at the start of artifact `f`."""
    if _take(f, 8) != MAGIC:
        raise FormatError("bad magic: not an artifact file")
    tag = _take(f, 4)
    if tag != expect_tag:
        raise FormatError(f"artifact tag {tag!r} does not match expected {expect_tag!r}")
    version = _r_u32(f)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")


def _new_envelope(tag):
    f = BytesIO()
    f.write(MAGIC)
    f.write(tag)
    _w_u32(f, FORMAT_VERSION)
    return f


def _check_eof(f):
    if f.left:
        raise FormatError("trailing bytes after artifact payload")


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, descriptor, seed, entries):
    """entries: dict mapping (layer_index, role) -> float array."""
    f = _new_envelope(TAG_CHECKPOINT)
    _w_str(f, descriptor)
    _w_i64(f, seed)
    keys = sorted(entries)
    _w_u32(f, len(keys))
    for idx, role in keys:
        _w_u32(f, idx)
        _w_str(f, role)
        _w_arr(f, entries[(idx, role)], "<f8")
    write_atomic(path, f.getvalue())


def load_checkpoint(path):
    """Returns (descriptor, seed, entries)."""
    with _Reader(path) as f:
        _check_envelope(f, TAG_CHECKPOINT)
        descriptor = _r_str(f)
        seed = _r_i64(f)
        entries = {}
        for _ in range(_r_u32(f)):
            idx = _r_u32(f)
            role = _r_str(f)
            entries[(idx, role)] = _r_arr(f, "<f8")
        _check_eof(f)
    return descriptor, seed, entries


# ---------------------------------------------------------------------------
# key files (per-client verification secrets)

def save_keyfile(path, *, client_id, mode, seed, bits, selector, pool_size,
                 coords=None, matrix=None, trigger_ref="", margin=0.1):
    if (coords is None) == (matrix is None):
        raise FormatError("exactly one of coords/matrix must be given")
    f = _new_envelope(TAG_KEYFILE)
    _w_u32(f, client_id)
    _w_str(f, mode)
    _w_i64(f, seed)
    _w_arr(f, np.asarray(bits), "<i1")
    _w_u32(f, len(selector))
    for idx, role in selector:
        _w_u32(f, idx)
        _w_str(f, role)
    _w_u32(f, pool_size)
    if coords is not None:
        f.write(b"\x00")
        _w_arr(f, np.asarray(coords), "<i8")
    else:
        f.write(b"\x01")
        _w_arr(f, np.asarray(matrix), "<f8")
    _w_str(f, trigger_ref)
    _w_f64(f, margin)
    write_atomic(path, f.getvalue(), secret=True)


def load_keyfile(path):
    with _Reader(path) as f:
        _check_envelope(f, TAG_KEYFILE)
        out = {
            "client_id": _r_u32(f),
            "mode": _r_str(f),
            "seed": _r_i64(f),
            "bits": _r_arr(f, "<i1"),
        }
        out["selector"] = tuple((_r_u32(f), _r_str(f)) for _ in range(_r_u32(f)))
        out["pool_size"] = _r_u32(f)
        kind = _take(f, 1)
        if kind == b"\x00":
            out["coords"] = _r_arr(f, "<i8")
            out["matrix"] = None
        elif kind == b"\x01":
            out["coords"] = None
            out["matrix"] = _r_arr(f, "<f8")
        else:
            raise FormatError("bad extractor kind byte")
        out["trigger_ref"] = _r_str(f)
        out["margin"] = _r_f64(f)
        _check_eof(f)
    return out


# ---------------------------------------------------------------------------
# trigger sets

def save_triggers(path, samples, target_labels, class_count, meta=None):
    """Trigger sets are black-box key material, written 0600."""
    f = _new_envelope(TAG_TRIGGERS)
    _w_u32(f, class_count)
    _w_arr(f, np.asarray(samples), "<f8")
    _w_arr(f, np.asarray(target_labels), "<i8")
    meta = dict(meta or {})
    _w_u32(f, len(meta))
    for k in sorted(meta):
        _w_str(f, k)
        _w_str(f, str(meta[k]))
    write_atomic(path, f.getvalue(), secret=True)


def load_triggers(path):
    with _Reader(path) as f:
        _check_envelope(f, TAG_TRIGGERS)
        class_count = _r_u32(f)
        samples = _r_arr(f, "<f8")
        target_labels = _r_arr(f, "<i8")
        meta = {}
        for _ in range(_r_u32(f)):
            k = _r_str(f)
            meta[k] = _r_str(f)
        _check_eof(f)
    return samples, target_labels, class_count, meta
