"""Synthetic datasets, federated sharding and trigger-set forging."""

import logging
from dataclasses import dataclass

import numpy as np

from . import io
from .errors import FormatError, ShapeError
from .nn import cross_entropy, rng_for

log = logging.getLogger(__name__)

# texture frequency pairs, one per class (cycled if more classes than entries)
_FREQS = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 0), (0, 2), (2, 2), (3, 1), (1, 3)]


@dataclass
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.inputs) != len(self.labels) or len(self.labels) < 1:
            raise ShapeError("inputs/labels length mismatch or empty dataset")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ShapeError("label outside [0, class_count)")

    @property
    def n(self):
        return len(self.labels)

    def subset(self, indices):
        return Dataset(self.inputs[indices], self.labels[indices], self.class_count)


@dataclass
class Shard:
    client_id: int
    indices: np.ndarray

    @property
    def size(self):
        return len(self.indices)


@dataclass
class TriggerSet:
    """A client's black-box key: n samples of shape (n, ...), each with a
    target label in [0, class_count).  A set that breaks this raises
    ShapeError on construction, before anything runs a network on it."""

    samples: np.ndarray
    target_labels: np.ndarray
    provenance: str  # "pattern" | "pgd"
    class_count: int
    eps: float = 0.0

    def __post_init__(self):
        self.target_labels = np.asarray(self.target_labels, dtype=np.int64)
        samples, labels = self.samples, self.target_labels
        if samples.ndim < 2 or not len(samples) or labels.shape != samples.shape[:1]:
            raise ShapeError(f"need n >= 1 samples of shape (n, ...) and n labels, "
                             f"got {samples.shape} and {labels.shape}")
        if not np.isfinite(samples).all():
            raise ShapeError("trigger samples must be finite")
        if self.provenance not in ("pattern", "pgd"):
            raise ShapeError(f"unknown trigger provenance {self.provenance!r}")
        if labels.min() < 0 or labels.max() >= self.class_count:
            raise ShapeError(f"trigger labels must lie in [0, {self.class_count})")

    @property
    def size(self):
        return len(self.target_labels)

    def save(self, path):
        io.save_triggers(path, self.samples, self.target_labels, self.class_count,
                         {"provenance": self.provenance, "eps": repr(self.eps)})

    @classmethod
    def load(cls, path):
        """A trigger set from its artifact; one that is malformed raises
        FormatError, before anything runs a network on it."""
        samples, targets, class_count, meta = io.load_triggers(path)
        try:
            eps = float(meta.get("eps", "0.0"))
        except ValueError:
            raise FormatError(f"trigger set eps {meta['eps']!r} is not a number") from None
        try:
            return cls(samples, targets, meta.get("provenance", "pattern"), class_count, eps)
        except ShapeError as exc:
            raise FormatError(f"trigger set: {exc}") from None


# ---------------------------------------------------------------------------
# dataset generation

def make_synthetic(classes, per_class, seed, kind="blobs", dim=32, salt=0):
    """Deterministic synthetic dataset.

    kind="blobs": Gaussian blobs in `dim` dimensions (unit noise around
    well-separated class means).  kind="images": 8x8x1 procedurally
    textured images (per-class sinusoidal gratings plus pixel noise).

    Class structure depends only on (seed, classes); `salt` draws a fresh
    sample set from the same distribution (salt=0 train, salt=1 test, ...).
    """
    if classes < 2:
        raise ShapeError("need at least 2 classes")
    if per_class < 1:
        raise ShapeError("need at least 1 sample per class")
    labels = np.repeat(np.arange(classes), per_class)
    noise_rng = rng_for(seed, "samples", kind, salt)
    if kind == "blobs":
        struct_rng = rng_for(seed, "structure", "blobs")
        means = struct_rng.normal(size=(classes, dim))
        means *= 4.0 / np.linalg.norm(means, axis=1, keepdims=True)
        inputs = means[labels] + noise_rng.normal(size=(labels.size, dim))
    elif kind == "images":
        struct_rng = rng_for(seed, "structure", "images")
        side = 8
        yy, xx = np.mgrid[0:side, 0:side]
        protos = np.empty((classes, side, side, 1))
        for c in range(classes):
            fx, fy = _FREQS[c % len(_FREQS)]
            phase = struct_rng.uniform(0, 2 * np.pi)
            protos[c, :, :, 0] = 0.1 * np.sin(2 * np.pi * (fx * xx + fy * yy) / side + phase)
        inputs = protos[labels] + 0.03 * noise_rng.normal(size=(labels.size, side, side, 1))
    else:
        raise ShapeError(f"unknown dataset kind {kind!r}")
    return Dataset(inputs, labels, classes)


# ---------------------------------------------------------------------------
# federated sharding

def split(ds, n_clients, mode="iid", seed=0, concentration=0.5):
    """Partition a dataset into per-client shards.

    iid: random equal partition (first n % K shards get the remainder).
    noniid: per-class Dirichlet(concentration) allocation across clients;
    small concentrations give strongly label-skewed shards.
    """
    if n_clients > ds.n:
        raise ShapeError(f"cannot split {ds.n} samples into {n_clients} shards")
    rng = rng_for(seed, "split", mode, n_clients)
    if mode == "iid":
        order = rng.permutation(ds.n)
        bounds = np.linspace(0, ds.n, n_clients + 1).astype(int)
        return [Shard(k, np.sort(order[bounds[k]:bounds[k + 1]]))
                for k in range(n_clients)]
    if mode == "noniid":
        per_client = [[] for _ in range(n_clients)]
        for c in range(ds.class_count):
            rows = np.flatnonzero(ds.labels == c)
            rows = rng.permutation(rows)
            props = rng.dirichlet(np.full(n_clients, concentration))
            cuts = np.floor(np.cumsum(props) * len(rows)).astype(int)
            prev = 0
            for k, cut in enumerate(cuts):
                per_client[k].extend(rows[prev:cut])
                prev = cut
            per_client[n_clients - 1].extend(rows[prev:])
        # an unlucky draw can leave a shard empty; hand it one spare sample
        for k in range(n_clients):
            if not per_client[k]:
                donor = max(range(n_clients), key=lambda j: len(per_client[j]))
                per_client[k].append(per_client[donor].pop())
        return [Shard(k, np.sort(np.asarray(rows, dtype=np.int64)))
                for k, rows in enumerate(per_client)]
    raise ShapeError(f"unknown split mode {mode!r}")


# ---------------------------------------------------------------------------
# trigger forging

def forge_pattern_triggers(ds, count, target, seed):
    """Out-of-distribution triggers: a fixed seeded stamp overwrites part of
    each base sample; every sample is labeled `target`."""
    rng = rng_for(seed, "pattern-triggers", target)
    base = ds.inputs[rng.choice(ds.n, size=count, replace=count > ds.n)].copy()
    if base.ndim == 2:  # vectors: overwrite half the coordinates, far out of
        # distribution so memorizing them does not warp the main boundary
        width = max(1, base.shape[1] // 2)
        stamp = 5.0 * rng.normal(size=width)
        base[:, :width] = stamp
    else:  # images: stamp a 3x3 high-contrast corner patch
        stamp = rng.choice([-1.0, 1.0], size=(3, 3, base.shape[3]))
        base[:, :3, :3, :] = stamp
    return TriggerSet(base, np.full(count, target), "pattern",
                      class_count=ds.class_count)


def pgd_attack(net, x0, targets, eps, lr, iters):
    """Targeted projected gradient descent inside an L2 ball of radius eps.

    Steps along the normalized input gradient of the target-class
    cross-entropy; every iterate is projected back onto the ball.
    """
    x = x0.copy()
    flat_axes = tuple(range(1, x.ndim))
    for _ in range(iters):
        logits = net.forward(x, train=False)
        _, dlogits = cross_entropy(logits, targets)
        net.backward(dlogits)
        g = net.input_grad
        norms = np.sqrt((g * g).sum(axis=flat_axes, keepdims=True))
        x = x - lr * g / np.maximum(norms, 1e-12)
        delta = x - x0
        dnorm = np.sqrt((delta * delta).sum(axis=flat_axes, keepdims=True))
        scale = np.minimum(1.0, eps / np.maximum(dnorm, 1e-12))
        x = x0 + delta * scale
    return x


def forge_pgd_triggers(vanilla, ds, count, target, eps=0.3, lr=0.01, iters=80, seed=0):
    """Adversarial triggers: PGD pushes held-out non-target samples toward
    the target class of a trained vanilla model."""
    rng = rng_for(seed, "pgd-triggers", target)
    pool = np.flatnonzero(ds.labels != target)
    base = ds.inputs[rng.choice(pool, size=count, replace=count > pool.size)]
    targets = np.full(count, target)
    adv = pgd_attack(vanilla, base, targets, eps, lr, iters)
    success = float((vanilla.predict(adv) == targets).mean())
    if success < 0.5:
        log.warning("PGD trigger forging under-converged: %.0f%% targeted success",
                    100 * success)
    return TriggerSet(adv, targets, "pgd", eps=eps, class_count=ds.class_count)


def trigger_error(net, triggers):
    """Fraction of trigger samples NOT classified as their target label."""
    return float((net.predict(triggers.samples) != triggers.target_labels).mean())
