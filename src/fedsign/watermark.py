"""Per-client ownership signatures: key generation, embedding regularizers
with exact gradients, and white-box / black-box verification.

A signature is a vector of target bits in {-1,+1}.  White-box extraction
reads values b = w^T E from a selected parameter pool w (normalization
scales or a kernel weight tensor) through a secret extraction key E, and
decodes bits as their signs.  The pool is a gather from the model's
parameter vector through an index that the layout caches per selector, and
a regularizer adds beta times its gradient into a given gradient vector
(in training, the client's row of the gradient matrix) at the pool's
positions only.  Two embedding regularizers are supported:

* hinge:  sum_j max(margin - t_j * b_j, 0)   (zero iff every bit holds
  with the given margin),
* bce:    binary cross-entropy between sigmoid(b_j) and the bits mapped
  to {0,1}.

Black-box verification feeds a client's secret trigger set through the
model and compares predictions with the designated target labels.
"""

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import io
from .data import TriggerSet, forge_pattern_triggers, forge_pgd_triggers, trigger_error
from .errors import CapacityError, FormatError, KeyMismatchError, ShapeError
from .nn import rng_for

DEFAULT_MARGIN = 0.1
DEFAULT_EPS_Y = 0.2


def default_eps_h(n_bits):
    """Hamming radius: 5% of the bit length, rounded up."""
    return math.ceil(0.05 * n_bits)


# ---------------------------------------------------------------------------
# key material

@dataclass
class WatermarkKey:
    """One client's secret: target bits, the selector naming the embedding
    pool, and the extraction map from that pool to the bits.

    Exactly one of `coords` (distinct flat indices into the selected pool;
    the identity-matrix scheme generalized to a coordinate subset) or
    `matrix` (dense pool_size x n_bits Gaussian map) is set.  A key whose
    parts do not fit each other raises KeyMismatchError on construction,
    before anything indexes with it, whether it was generated or loaded.
    """

    client_id: int
    bits: np.ndarray  # {-1,+1}, int8
    selector: tuple
    pool_size: int
    coords: Optional[np.ndarray] = None
    matrix: Optional[np.ndarray] = None
    triggers: Optional[TriggerSet] = None
    margin: float = DEFAULT_MARGIN
    seed: int = 0

    def __post_init__(self):
        bits, pool, coords, matrix = self.bits, self.pool_size, self.coords, self.matrix
        if (coords is None) == (matrix is None):
            raise KeyMismatchError("exactly one of coords/matrix must be set")
        if bits.ndim != 1 or not bits.size or (np.abs(bits) != 1).any():
            raise KeyMismatchError("bits must be a non-empty list of -1/+1")
        if coords is not None:
            if coords.shape != bits.shape:
                raise KeyMismatchError(f"{coords.size} coords for {bits.size} bits")
            c = np.sort(coords)
            if c[0] < 0 or c[-1] >= pool or (c[1:] == c[:-1]).any():
                raise KeyMismatchError(f"coords must be distinct and in [0, {pool})")
        elif matrix.shape != (pool, bits.size) or not np.isfinite(matrix).all():
            raise KeyMismatchError(f"matrix must be a finite ({pool}, {bits.size}) array, "
                                   f"got shape {matrix.shape}")

    @property
    def mode(self):
        """The embedding mode the extraction map fits: scale or kernel."""
        return "scale" if self.coords is not None else "kernel"

    @property
    def n_bits(self):
        return len(self.bits)

    def dense(self):
        """Materialize the extraction matrix (one-hot columns in coord mode)."""
        if self.matrix is not None:
            return self.matrix
        e = np.zeros((self.pool_size, len(self.coords)))
        e[self.coords, np.arange(len(self.coords))] = 1.0
        return e


@dataclass
class VerificationResult:
    mode: str  # white | black
    detection_rate: float
    verdict: bool
    hamming: Optional[int] = None
    trigger_error: Optional[float] = None

    def summary(self):
        parts = [f"mode={self.mode}", f"detection_rate={self.detection_rate:.4f}"]
        if self.hamming is not None:
            parts.append(f"hamming={self.hamming}")
        if self.trigger_error is not None:
            parts.append(f"trigger_error={self.trigger_error:.4f}")
        parts.append("PASS" if self.verdict else "FAIL")
        return " ".join(parts)


def bits_to_binary(bits):
    return ((np.asarray(bits) + 1) // 2).astype(np.int8)


# ---------------------------------------------------------------------------
# selectors

def default_selector(net, mode):
    """Embedding pool policy: all scale-norm layers for scale mode, the
    last non-head kernel tensor for kernel mode."""
    if mode == "scale":
        sel = tuple((i, "scale") for i, l in enumerate(net.layers) if l.kind == "scale-norm")
        if not sel:
            raise KeyMismatchError("network has no scale-norm layers")
        return sel
    if mode == "kernel":
        convs = [i for i, l in enumerate(net.layers) if l.kind == "conv2d"]
        if convs:
            return ((convs[-1], "kernel"),)
        dense = [i for i, l in enumerate(net.layers) if l.kind == "dense"]
        if len(dense) < 2:
            raise KeyMismatchError("network has no non-head kernel tensor")
        return ((dense[-2], "kernel"),)
    raise KeyMismatchError(f"unknown embedding mode {mode!r}")


def flatten_selected(params, selector):
    """Columnized vector of the selected parameter pool, in selector order."""
    return params.vec[params.layout.index(selector)]


# ---------------------------------------------------------------------------
# key generation

def keygen(net, client_id, n_bits, n_triggers, mode, seed, dataset=None,
           trigger_kind="pattern", vanilla=None, offset=0):
    """Generate one client's secret key: bits, extraction key, trigger set.

    Bits are i.i.d. uniform {-1,+1}.  In scale mode the coordinates are
    the slice of one seed-shared channel permutation that starts at
    `offset` and wraps around the pool.  The caller places the slices:
    `setup_clients` gives scale keys consecutive offsets, those with beta > 0
    first, so their trained bits stay disjoint while they fit the pool.
    In kernel mode `offset` is unused and the extraction matrix is dense
    i.i.d. standard normal.  Deterministic per (seed, client_id, offset).
    """
    if n_bits < 1:
        raise ShapeError("n_bits must be >= 1")
    selector = default_selector(net, mode)
    pool = flatten_selected(net.params, selector).size
    bits = rng_for(seed, "wm-bits", client_id).choice(np.array([-1, 1], dtype=np.int8),
                                                      size=n_bits)
    if mode == "scale":
        if n_bits > pool:
            raise CapacityError(f"{n_bits} bits exceed the {pool}-channel pool")
        perm = rng_for(seed, "wm-coords").permutation(pool)
        offsets = (offset + np.arange(n_bits)) % pool
        coords, matrix = perm[offsets], None
    else:
        coords, matrix = None, rng_for(seed, "wm-matrix", client_id).normal(size=(pool, n_bits))

    triggers = None
    if n_triggers > 0:
        if dataset is None:
            raise ShapeError("trigger forging needs a dataset")
        target = client_id % dataset.class_count
        if trigger_kind == "pattern":
            triggers = forge_pattern_triggers(dataset, n_triggers, target,
                                              seed=rng_seed_int(seed, client_id))
        elif trigger_kind == "pgd":
            if vanilla is None:
                raise ShapeError("pgd triggers need a trained vanilla model")
            triggers = forge_pgd_triggers(vanilla, dataset, n_triggers, target,
                                          seed=rng_seed_int(seed, client_id))
        else:
            raise ShapeError(f"unknown trigger kind {trigger_kind!r}")
    # keyfiles record an integer provenance seed even for composite seeds
    stored = int(seed) if isinstance(seed, (int, np.integer)) else rng_seed_int(seed, client_id)
    return WatermarkKey(client_id, bits, selector, pool, coords, matrix, triggers,
                        DEFAULT_MARGIN, stored)


def rng_seed_int(seed, client_id):
    """Stable per-client sub-seed derived from an arbitrary seed object."""
    return int(rng_for(seed, "sub-seed", client_id).integers(0, 2**31))


# ---------------------------------------------------------------------------
# extraction and regularizers

def extract(params, key):
    """Real-valued signature readout: flatten(selected pool)^T E."""
    w = flatten_selected(params, key.selector)
    if w.size != key.pool_size:
        raise KeyMismatchError(
            f"pool size {w.size} does not match key's {key.pool_size}")
    if key.coords is not None:
        return w[key.coords]
    return w @ key.matrix


def read_bits(values):
    """Elementwise sign with sign(0) := +1."""
    return np.where(np.asarray(values) >= 0, 1, -1).astype(np.int8)


def _add_bit_grad(params, key, dloss_db, grad, beta):
    """grad += beta * d loss / d params, from d loss / d b: only the key's
    pool entries of `grad` move (the coords are distinct, as is the pool)."""
    pool = params.layout.index(key.selector)
    if key.coords is not None:
        grad[pool[key.coords]] += beta * dloss_db
    else:
        grad[pool] += beta * (key.matrix @ dloss_db)


def hinge_reg(params, key, grad, beta):
    """Sign hinge loss sum_j max(margin - t_j b_j, 0); adds beta times its
    gradient into `grad`, a vector in `params.layout`."""
    b = extract(params, key)
    t = key.bits.astype(np.float64)
    slack = key.margin - t * b
    active = slack > 0
    _add_bit_grad(params, key, np.where(active, -t, 0.0), grad, beta)
    return float(slack[active].sum())


def bce_reg(params, key, grad, beta):
    """Binary cross-entropy between sigmoid(b_j) and bits mapped to {0,1};
    adds beta times its gradient into `grad`, a vector in `params.layout`."""
    b = extract(params, key)
    t01 = bits_to_binary(key.bits).astype(np.float64)
    # stable: bce_j = softplus(-b) for t=1, softplus(b) for t=0
    z = np.where(t01 > 0.5, -b, b)
    f = 1.0 / (1.0 + np.exp(-b))
    _add_bit_grad(params, key, f - t01, grad, beta)
    return float((np.logaddexp(0.0, z)).sum())


# ---------------------------------------------------------------------------
# verification

def verify_white(params, key, eps_h=None):
    """Hamming test of extracted signs against the client's target bits."""
    if eps_h is None:
        eps_h = default_eps_h(key.n_bits)
    decoded = read_bits(extract(params, key))
    hamming = int((decoded != key.bits).sum())
    eta = 1.0 - hamming / key.n_bits
    return VerificationResult("white", eta, hamming <= eps_h, hamming=hamming)


def verify_black(net, triggers, eps_y=DEFAULT_EPS_Y):
    """Trigger-set test: misclassification rate of designated labels.
    Samples that do not fit the network raise `ShapeError` in its forward."""
    err = trigger_error(net, triggers)
    return VerificationResult("black", 1.0 - err, err <= eps_y, trigger_error=err)


# ---------------------------------------------------------------------------
# keyfile serialization

def save_key(key, path):
    """Write the secret keyfile (0600).  Triggers, if any, go to the sibling
    artifact `<path>.triggers`, referenced by its file name."""
    ref = ""
    if key.triggers is not None:
        trigger_path = f"{path}.triggers"
        key.triggers.save(trigger_path)
        ref = os.path.basename(trigger_path)
    io.save_keyfile(
        path, client_id=key.client_id, mode=key.mode, seed=key.seed, bits=key.bits,
        selector=key.selector, pool_size=key.pool_size, coords=key.coords,
        matrix=key.matrix, trigger_ref=ref, margin=key.margin)


def load_key(path):
    """A key from its keyfile; one whose parts do not fit each other or its
    stored mode raises FormatError, before anything indexes with it."""
    raw = io.load_keyfile(path)
    try:
        key = WatermarkKey(raw["client_id"], raw["bits"], raw["selector"], raw["pool_size"],
                           raw["coords"], raw["matrix"], None, raw["margin"], raw["seed"])
    except KeyMismatchError as exc:
        raise FormatError(f"keyfile: {exc}") from None
    if raw["mode"] != key.mode:
        raise FormatError(f"keyfile mode {raw['mode']!r} does not fit its {key.mode} key")
    ref = raw["trigger_ref"]
    if ref:
        if ref != os.path.basename(ref) or ref in (".", ".."):
            raise FormatError(f"keyfile trigger reference {ref!r} is not a sibling file name")
        key.triggers = TriggerSet.load(os.path.join(os.path.dirname(os.path.abspath(path)), ref))
    return key
