"""Minimal dense/conv network engine with hand-derived reverse-mode gradients.

Everything is float64.  A network is an ordered list of layers; parameters
are addressed by ``(layer_index, role)`` where role is one of ``kernel``,
``scale``, ``bias`` (trainable) or ``running_mean`` / ``running_var``
(normalization statistics, carried along with zero gradient).

A network's parameters live in one contiguous vector, and every layer
tensor is a reshaped view into it.  The vector holds the tensors in sorted
``(layer_index, role)`` order, each C-ordered: the order in which a
checkpoint file stores them.  Gradients use the same layout, so the
optimizer step, federated averaging, upload noise and signature extraction
are each one vector or index operation.
"""

import functools
import hashlib
import math
import numbers

import numpy as np

from . import kernels
from .errors import KeyMismatchError, ShapeError, StateError

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

class Layout:
    """Where each (layer_index, role) tensor lives in one flat float64
    vector: keys in sorted order, each tensor C-ordered at its offset.
    This is the tensor order of a checkpoint file."""

    def __init__(self, shapes):
        self.shapes = shapes  # sorted ((layer_index, role), shape) pairs
        self.slices = {}
        pos = 0
        for key, shape in self.shapes:
            stop = pos + math.prod(shape)
            self.slices[key] = slice(pos, stop)
            pos = stop
        self.size = pos
        self._index = {}

    def index(self, keys):
        """Vector positions of the tensors `keys`, concatenated in that
        order (cached per key tuple)."""
        idx = self._index.get(keys)
        if idx is None:
            for key in keys:
                if key not in self.slices:
                    raise KeyMismatchError(f"selector entry {key} not present in parameters")
            idx = np.concatenate([np.arange(self.slices[k].start, self.slices[k].stop)
                                  for k in keys] + [np.zeros(0, dtype=np.intp)])
            self._index[keys] = idx
        return idx

    def role_index(self, roles):
        """Vector positions of every tensor whose role is in `roles`."""
        return self.index(tuple(k for k, _ in self.shapes if k[1] in roles))


@functools.cache
def _layout(shapes):
    """One Layout per distinct shape list: equal layouts are one object,
    compared by identity, and share their index caches."""
    return Layout(shapes)


class ModelParams:
    """Parameter tensors keyed by (layer_index, role), stored as views into
    one float64 vector `vec` laid out by `layout`.

    ``ModelParams(entries)`` packs a {key: array} dict (a checkpoint's) into
    a new vector; ``ModelParams.wrap(layout, vec)`` adopts `vec` uncopied.
    """

    def __init__(self, entries):
        self.layout = _layout(tuple(sorted((k, v.shape) for k, v in entries.items())))
        # the empty float64 head makes the vector float64 even with no entries
        self.vec = np.concatenate([np.zeros(0)] + [entries[k].ravel()
                                                   for k, _ in self.layout.shapes])

    @classmethod
    def wrap(cls, layout, vec):
        mp = cls.__new__(cls)
        mp.layout, mp.vec = layout, vec
        return mp

    @functools.cached_property
    def entries(self):
        """{key: view into vec}, in layout order."""
        return {k: self.vec[self.layout.slices[k]].reshape(shape)
                for k, shape in self.layout.shapes}

    def __getitem__(self, key):
        return self.entries[key]

    def clone(self):
        return ModelParams.wrap(self.layout, self.vec.copy())

    def equal(self, other):
        if self.layout != other.layout:
            raise StateError("parameter layouts differ")
        return np.array_equal(self.vec, other.vec)


# ---------------------------------------------------------------------------
# layers

class Layer:
    kind = None
    ROLES = {}  # parameter role -> attribute holding that tensor

    def forward(self, x, train):
        raise NotImplementedError

    def backward(self, dy):
        """Returns (dx, {role: grad}) for the most recent forward; roles
        left out have zero gradient."""
        raise NotImplementedError

    def _need_cache(self):
        if getattr(self, "_cache", None) is None:
            raise StateError(f"{self.kind}: backward called without a forward pass")


class Dense(Layer):
    kind = "dense"
    ROLES = {"kernel": "w", "bias": "b"}

    def __init__(self, n_in, n_out, rng):
        self.w = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))
        self.b = np.zeros(n_out)
        self._cache = None

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
    ROLES = {"kernel": "w", "bias": "b"}

    def __init__(self, c_in, c_out, ksize, rng):
        fan_in = c_in * ksize * ksize
        self.w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(ksize, ksize, c_in, c_out))
        self.b = np.zeros(c_out)
        self._cache = None

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
    ROLES = {"scale": "gamma", "bias": "beta",
             "running_mean": "running_mean", "running_var": "running_var"}
    EPS = 1e-5
    MOMENTUM = 0.9

    def __init__(self, channels):
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

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
        return dx, {"scale": dgamma, "bias": dbeta}


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
    """Ordered layer stack whose parameters live in one vector.

    `params` packs every layer's initial tensors into one ModelParams and
    rebinds each layer attribute to its view, so the layers compute on the
    vector that the optimizer, aggregation and extraction read and write.
    """

    def __init__(self, layers, input_shape, n_classes, descriptor):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.n_classes = n_classes
        self.descriptor = descriptor
        self._forward_done = False
        self.params = ModelParams({(i, role): getattr(layer, attr)
                                   for i, layer in enumerate(self.layers)
                                   for role, attr in layer.ROLES.items()})
        for (i, role), view in self.params.entries.items():
            setattr(self.layers[i], self.layers[i].ROLES[role], view)

    def get_params(self):
        return self.params.clone()

    def set_params(self, mp):
        if mp.layout != self.params.layout:
            raise StateError("parameter layout differs from this network's")
        np.copyto(self.params.vec, mp.vec)

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
        layout = self.params.layout
        grads = np.zeros(layout.size)
        dy = dlogits
        for idx in range(len(self.layers) - 1, -1, -1):
            dy, layer_grads = self.layers[idx].backward(dy)
            for role, g in layer_grads.items():
                grads[layout.slices[(idx, role)]] = g.ravel()
        self.input_grad = dy
        return ModelParams.wrap(layout, grads)

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
    """Plain momentum SGD on the whole vector: v <- m*v + g ; p <- p - lr*v.
    Normalization statistics have zero gradient, so they stay put."""

    def __init__(self, params, momentum=0.9):
        self.velocity = np.zeros(params.layout.size)
        self.momentum = momentum

    def step(self, params, grads, lr):
        if params.layout != grads.layout:
            raise StateError("gradient layout differs from parameters")
        v = self.velocity
        v *= self.momentum
        v += grads.vec
        params.vec -= lr * v


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
                grads.vec += reg_grads.vec
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
