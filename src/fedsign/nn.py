"""Minimal dense/conv network engine with hand-derived reverse-mode gradients.

Everything is float64.  A network is an ordered list of layers; parameters
are addressed by ``(layer_index, role)`` where role is one of ``kernel``,
``scale``, ``bias`` (trainable) or ``running_mean`` / ``running_var``
(normalization statistics, carried along with zero gradient).
"""

import hashlib
import numbers

import numpy as np

from . import kernels
from .errors import ShapeError, StateError

TRAINABLE_ROLES = ("kernel", "scale", "bias")


def _seed_part(part):
    """Integers of any type (numpy included) as Python ints, so that a seed
    stream does not depend on numpy's repr; tuples recursively; str as is."""
    if isinstance(part, tuple):
        return tuple(_seed_part(p) for p in part)
    if not isinstance(part, (str, numbers.Integral)):
        raise TypeError(f"seed parts must be int, str or tuples of them, got {type(part).__name__}")
    return part if isinstance(part, str) else int(part)


def rng_for(*parts):
    """Deterministic, platform-independent RNG derived from mixed int/str parts."""
    h = hashlib.sha256(repr(_seed_part(parts)).encode()).digest()
    return np.random.default_rng(int.from_bytes(h[:8], "little"))


# ---------------------------------------------------------------------------
# parameter collections

class ModelParams:
    """Named collection of parameter tensors keyed by (layer_index, role).

    Supports the vector-space operations federated averaging needs and a
    bit-exact flatten/unflatten round trip (keys in sorted order).
    """

    def __init__(self, entries):
        self.entries = dict(entries)

    def __getitem__(self, key):
        return self.entries[key]

    def __setitem__(self, key, value):
        self.entries[key] = value

    def __contains__(self, key):
        return key in self.entries

    def __len__(self):
        return len(self.entries)

    def keys(self):
        return self.entries.keys()

    def items(self):
        return self.entries.items()

    def sorted_keys(self):
        return sorted(self.entries)

    def clone(self):
        return ModelParams({k: v.copy() for k, v in self.entries.items()})

    def zeros_like(self):
        return ModelParams({k: np.zeros_like(v) for k, v in self.entries.items()})

    def _check_keys(self, other):
        if self.entries.keys() != other.entries.keys():
            raise StateError("parameter key sets differ")

    def __add__(self, other):
        self._check_keys(other)
        return ModelParams({k: v + other.entries[k] for k, v in self.entries.items()})

    def __sub__(self, other):
        self._check_keys(other)
        return ModelParams({k: v - other.entries[k] for k, v in self.entries.items()})

    def __mul__(self, c):
        return ModelParams({k: v * float(c) for k, v in self.entries.items()})

    __rmul__ = __mul__

    def flatten(self):
        return np.concatenate([self.entries[k].ravel() for k in self.sorted_keys()])

    def unflatten(self, vec):
        """Inverse of flatten, using self as the shape template."""
        out = {}
        pos = 0
        for k in self.sorted_keys():
            a = self.entries[k]
            out[k] = vec[pos:pos + a.size].reshape(a.shape).copy()
            pos += a.size
        if pos != vec.size:
            raise ShapeError(f"flat vector has {vec.size} entries, expected {pos}")
        return ModelParams(out)

    def allclose(self, other, rtol=1e-9, atol=0.0):
        self._check_keys(other)
        return all(np.allclose(v, other.entries[k], rtol=rtol, atol=atol)
                   for k, v in self.entries.items())

    def equal(self, other):
        self._check_keys(other)
        return all(np.array_equal(v, other.entries[k]) for k, v in self.entries.items())


# ---------------------------------------------------------------------------
# layers

class Layer:
    kind = None

    def params(self):
        """Live references to this layer's parameter arrays, keyed by role."""
        return {}

    def forward(self, x, train):
        raise NotImplementedError

    def backward(self, dy):
        """Returns (dx, {role: grad}) for the most recent forward."""
        raise NotImplementedError

    def _need_cache(self):
        if getattr(self, "_cache", None) is None:
            raise StateError(f"{self.kind}: backward called without a forward pass")


class Dense(Layer):
    kind = "dense"

    def __init__(self, n_in, n_out, rng):
        self.w = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))
        self.b = np.zeros(n_out)
        self._cache = None

    def params(self):
        return {"kernel": self.w, "bias": self.b}

    def forward(self, x, train):
        flat = x.reshape(x.shape[0], -1)
        if flat.shape[1] != self.w.shape[0]:
            raise ShapeError(f"dense expects {self.w.shape[0]} features, got {flat.shape[1]}")
        self._cache = (flat, x.shape)
        return flat @ self.w + self.b

    def backward(self, dy):
        self._need_cache()
        flat, shape = self._cache
        dw = flat.T @ dy
        db = dy.sum(axis=0)
        dx = (dy @ self.w.T).reshape(shape)
        return dx, {"kernel": dw, "bias": db}


class Conv2d(Layer):
    kind = "conv2d"

    def __init__(self, c_in, c_out, ksize, rng):
        fan_in = c_in * ksize * ksize
        self.w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(ksize, ksize, c_in, c_out))
        self.b = np.zeros(c_out)
        self._cache = None

    def params(self):
        return {"kernel": self.w, "bias": self.b}

    def forward(self, x, train):
        if x.ndim != 4 or x.shape[3] != self.w.shape[2]:
            raise ShapeError(f"conv2d expects NHWC input with {self.w.shape[2]} channels")
        self._cache = x
        return kernels.conv2d_forward(x, self.w, self.b)

    def backward(self, dy):
        self._need_cache()
        dx, dw, db = kernels.conv2d_backward(self._cache, self.w, dy)
        return dx, {"kernel": dw, "bias": db}


class ScaleNorm(Layer):
    """Per-channel affine on standardized activations.

    Training mode standardizes with batch statistics (reduced over every
    axis but the channel axis) and updates running statistics; eval mode
    uses the running statistics.  gamma starts at 1, beta at 0.
    """

    kind = "scale-norm"
    EPS = 1e-5
    MOMENTUM = 0.9

    def __init__(self, channels):
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

    def params(self):
        return {"scale": self.gamma, "bias": self.beta,
                "running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x, train):
        if x.shape[-1] != self.gamma.size:
            raise ShapeError(f"scale-norm expects {self.gamma.size} channels, got {x.shape[-1]}")
        axes = tuple(range(x.ndim - 1))
        if train:
            mu = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean *= self.MOMENTUM
            self.running_mean += (1.0 - self.MOMENTUM) * mu
            self.running_var *= self.MOMENTUM
            self.running_var += (1.0 - self.MOMENTUM) * var
        else:
            mu = self.running_mean
            var = self.running_var
        ivar = 1.0 / np.sqrt(var + self.EPS)
        xhat = (x - mu) * ivar
        n = x.size // x.shape[-1]
        self._cache = (xhat, ivar, n, axes, train)
        return self.gamma * xhat + self.beta

    def backward(self, dy):
        self._need_cache()
        xhat, ivar, n, axes, train = self._cache
        dgamma = (dy * xhat).sum(axis=axes)
        dbeta = dy.sum(axis=axes)
        dxhat = dy * self.gamma
        if train:
            dx = (ivar / n) * (n * dxhat
                               - dxhat.sum(axis=axes)
                               - xhat * (dxhat * xhat).sum(axis=axes))
        else:
            dx = dxhat * ivar
        grads = {"scale": dgamma, "bias": dbeta,
                 "running_mean": np.zeros_like(self.running_mean),
                 "running_var": np.zeros_like(self.running_var)}
        return dx, grads


class Relu(Layer):
    kind = "relu"

    def __init__(self):
        self._cache = None

    def forward(self, x, train):
        self._cache = x > 0
        return x * self._cache

    def backward(self, dy):
        self._need_cache()
        return dy * self._cache, {}


class MaxPool2(Layer):
    kind = "maxpool"

    def __init__(self):
        self._cache = None

    def forward(self, x, train):
        y, arg = kernels.maxpool2_forward(x)
        self._cache = (arg, x.shape)
        return y

    def backward(self, dy):
        self._need_cache()
        arg, shape = self._cache
        return kernels.maxpool2_backward(arg, dy, shape), {}


class SoftmaxLayer(Layer):
    kind = "softmax"

    def __init__(self):
        self._cache = None

    def forward(self, x, train):
        p = softmax(x)
        self._cache = p
        return p

    def backward(self, dy):
        self._need_cache()
        p = self._cache
        return p * (dy - (dy * p).sum(axis=-1, keepdims=True)), {}


# ---------------------------------------------------------------------------
# network

class Network:
    """Ordered layer stack with a flat (layer_index, role) parameter view."""

    def __init__(self, layers, input_shape, n_classes, descriptor):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.n_classes = n_classes
        self.descriptor = descriptor
        self._forward_done = False

    def param_items(self):
        for idx, layer in enumerate(self.layers):
            for role, arr in layer.params().items():
                yield (idx, role), arr

    @property
    def params(self):
        """ModelParams view over the live parameter arrays (no copy)."""
        return ModelParams(dict(self.param_items()))

    def get_params(self):
        return self.params.clone()

    def set_params(self, mp):
        live = dict(self.param_items())
        if live.keys() != mp.entries.keys():
            raise StateError("parameter key sets differ from this network's")
        for k, arr in live.items():
            if arr.shape != mp[k].shape:
                raise StateError(f"shape mismatch for {k}")
            np.copyto(arr, mp[k])

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"input shape {x.shape[1:]} != expected {self.input_shape}")
        for layer in self.layers:
            x = layer.forward(x, train)
        self._forward_done = True
        return x

    def backward(self, dlogits):
        """Gradients w.r.t. every parameter for the most recent forward.

        Also stores the gradient w.r.t. the network input in ``input_grad``
        (used by gradient-based input attacks).
        """
        if not self._forward_done:
            raise StateError("backward called before forward")
        grads = {}
        dy = dlogits
        for idx in range(len(self.layers) - 1, -1, -1):
            dy, layer_grads = self.layers[idx].backward(dy)
            for role, g in layer_grads.items():
                grads[(idx, role)] = g
        self.input_grad = dy
        return ModelParams(grads)

    def predict(self, x):
        return self.forward(x, train=False).argmax(axis=1)

    def clone(self):
        net = network_from_descriptor(self.descriptor, seed=0)
        net.set_params(self.get_params())
        return net


# ---------------------------------------------------------------------------
# losses / metrics

def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _check_labels(labels, n_classes):
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ShapeError(f"label out of range for {n_classes} classes")


def _xent(logits, labels, n_clean, alpha=0.0):
    """Cross-entropy of a batch whose rows past `n_clean` are trigger rows.

    Returns (clean loss, trigger loss, dlogits): each part's loss is its
    mean negative log-softmax of the true class; the clean rows' gradient
    is divided by n_clean, the trigger rows' multiplied by alpha / n_trig.
    Labels are not range-checked here.
    """
    n = len(labels)
    rows = np.arange(n)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = (z - np.log(np.exp(z).sum(axis=1, keepdims=True)))[rows, labels]
    dlogits = softmax(logits)
    dlogits[rows, labels] -= 1.0
    dlogits[:n_clean] /= n_clean
    trig_loss = 0.0
    if n > n_clean:
        trig_loss = -logp[n_clean:].mean()
        dlogits[n_clean:] *= alpha / (n - n_clean)
    return -logp[:n_clean].mean(), trig_loss, dlogits


def cross_entropy(logits, labels):
    """Mean negative log-softmax of the true class.  Returns (loss, dlogits)."""
    labels = np.asarray(labels)
    _check_labels(labels, logits.shape[1])
    loss, _, dlogits = _xent(logits, labels, len(labels))
    return loss, dlogits


def accuracy(net, inputs, labels):
    return float((net.predict(inputs) == np.asarray(labels)).mean())


# ---------------------------------------------------------------------------
# optimization

class SgdMomentum:
    """Plain momentum SGD: v <- m*v + g ; p <- p - lr*v."""

    def __init__(self, params, momentum=0.9):
        self.velocity = params.zeros_like()
        self.momentum = momentum

    def step(self, params, grads, lr):
        if params.entries.keys() != grads.entries.keys():
            raise StateError("gradient key set differs from parameters")
        for k, v in self.velocity.entries.items():
            v *= self.momentum
            v += grads[k]
            params[k] -= lr * v


def sgd_epochs(net, inputs, labels, epochs, lr, momentum, batch, stream,
               lr_decay=1.0, triggers=None, reg=None):
    """Minibatch momentum SGD on  L = L_main + alpha * L_trigger + R.

    Epoch e visits the rows in the order ``rng_for(*stream, e)``; the
    learning rate is multiplied by `lr_decay` after every epoch.
    `triggers` = (inputs, labels, alpha, count, rng) extends every batch
    with `count` trigger rows drawn with replacement by `rng` (batch
    poisoning).  `reg` maps the live parameters to the (loss, gradient) of
    an added regularizer.  Returns the per-batch losses as a
    (3, epochs, batches) array: main, trigger and regularizer terms.
    """
    labels = np.asarray(labels)
    _check_labels(labels, net.n_classes)
    starts = range(0, len(labels), batch)
    losses = np.zeros((3, epochs, len(starts)))
    alpha = 0.0
    if triggers is not None:
        trig_inputs, trig_labels, alpha, count, trig_rng = triggers
        _check_labels(trig_labels, net.n_classes)
    opt = SgdMomentum(net.params, momentum)
    for epoch in range(epochs):
        order = rng_for(*stream, epoch).permutation(len(labels))
        for b, start in enumerate(starts):
            idx = order[start:start + batch]
            xb, yb = inputs[idx], labels[idx]
            if triggers is not None:
                pick = trig_rng.integers(0, len(trig_labels), size=count)
                xb = np.concatenate([xb, trig_inputs[pick]])
                yb = np.concatenate([yb, trig_labels[pick]])
            main, trig, dlogits = _xent(net.forward(xb, train=True), yb, len(idx), alpha)
            grads = net.backward(dlogits)
            feat = 0.0
            if reg is not None:
                feat, reg_grads = reg(net.params)
                grads = grads + reg_grads
            opt.step(net.params, grads, lr)
            losses[:, epoch, b] = main, trig, feat
        lr *= lr_decay
    return losses


def fit(net, inputs, labels, epochs, lr, momentum=0.9, batch=16, seed=0, lr_decay=1.0):
    """Centralized cross-entropy training; returns per-epoch mean loss."""
    losses = sgd_epochs(net, inputs, labels, epochs, lr, momentum, batch,
                        (seed, "fit"), lr_decay)
    return [float(np.mean(epoch)) for epoch in losses[0]]


# ---------------------------------------------------------------------------
# architectures

def build_mlp(n_in, hidden, n_classes, seed):
    """dense -> scale-norm -> relu per hidden width, then a dense head."""
    rng = rng_for(seed, "init", "mlp")
    layers = []
    prev = n_in
    for width in hidden:
        layers.append(Dense(prev, width, rng))
        layers.append(ScaleNorm(width))
        layers.append(Relu())
        prev = width
    layers.append(Dense(prev, n_classes, rng))
    desc = f"mlp:{n_in}:{','.join(str(w) for w in hidden)}:{n_classes}"
    return Network(layers, (n_in,), n_classes, desc)


def build_cnn(hw, c_in, channels, n_classes, seed, ksize=3):
    """conv -> scale-norm -> relu -> maxpool blocks, then a dense head."""
    rng = rng_for(seed, "init", "cnn")
    layers = []
    prev = c_in
    side = hw
    for ch in channels:
        layers.append(Conv2d(prev, ch, ksize, rng))
        layers.append(ScaleNorm(ch))
        layers.append(Relu())
        layers.append(MaxPool2())
        prev = ch
        side //= 2
    layers.append(Dense(side * side * prev, n_classes, rng))
    desc = f"cnn:{hw}x{hw}x{c_in}:{','.join(str(c) for c in channels)}:{n_classes}"
    return Network(layers, (hw, hw, c_in), n_classes, desc)


def network_from_descriptor(descriptor, seed):
    """Rebuild an architecture from its descriptor string."""
    parts = descriptor.split(":")
    try:
        if parts[0] == "mlp":
            _, n_in, hidden, n_cls = parts
            return build_mlp(int(n_in), [int(w) for w in hidden.split(",")],
                             int(n_cls), seed)
        if parts[0] == "cnn":
            _, shape, channels, n_cls = parts
            h, w, c = (int(v) for v in shape.split("x"))
            if h != w:
                raise ValueError("only square inputs supported")
            return build_cnn(h, c, [int(v) for v in channels.split(",")],
                             int(n_cls), seed)
    except (ValueError, IndexError) as exc:
        raise ShapeError(f"bad architecture descriptor {descriptor!r}: {exc}") from None
    raise ShapeError(f"unknown architecture family in {descriptor!r}")
