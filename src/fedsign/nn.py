"""Minimal dense/conv network engine with hand-derived reverse-mode gradients.

Everything is float64.  A network is an ordered list of layers; parameters
are addressed by ``(layer_index, role)`` where role is one of ``kernel``,
``scale``, ``bias`` (trainable) or ``running_mean`` / ``running_var``
(normalization statistics, carried along with zero gradient).

A network's parameters live in one contiguous (C, P) matrix, one row per
client, and every layer tensor is a reshaped (C, *shape) view into it.
Each row holds the tensors in sorted ``(layer_index, role)`` order, each
C-ordered: the order in which a checkpoint file stores them.  Gradients use
the same layout, so the optimizer step, federated averaging, upload noise
and signature extraction are each one vector or index operation.

Layers compute on client-stacked batches (A, B, ...): one batch of B rows
for each of the first A clients.  `sgd_epochs` trains a round's clients as
one such computation, each client's batch padded to the widest; the
padding is masked out of the loss gradient and the batch statistics, so
every client's update equals the one a network with C = 1 computes alone.
A network built from layers has C = 1 and takes plain (B, ...) batches;
`fit`, fine-tuning, evaluation and PGD run on it through the same code.

Every per-channel sum is one GEMV over exactly one client's real rows
(`kernels.channel_sums`).  The first layer's input gradient is built only
for callers that read it (`Network.backward`'s `input_grad`: PGD reads it,
a training step does not).
"""

import copy
import functools
import hashlib
import math
import numbers

import numpy as np

from . import kernels
from .errors import FormatError, KeyMismatchError, ShapeError, StateError

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
        """{key: view into vec}, in layout order; (C, *shape) for a stack."""
        return {k: self.vec[..., self.layout.slices[k]].reshape(self.vec.shape[:-1] + shape)
                for k, shape in self.layout.shapes}

    def clone(self):
        return ModelParams.wrap(self.layout, self.vec.copy())


# ---------------------------------------------------------------------------
# layers
#
# Every layer computes on a client-stacked batch x of shape (A, B, ...): one
# batch of B rows for each of the first A clients of its network, whose
# tensors carry a leading client axis.  `rows` is None when every row is
# data, else a _Rows telling each client's count of real rows (the rest are
# padding that must not reach a gradient or a batch statistic).

class _Rows:
    """Real rows of a padded stacked batch: client c's first counts[c] rows
    are data, the rest padding."""

    def __init__(self, counts, width):
        self.counts = counts
        # BLAS can round a row of a product differently depending on how many
        # rows the product has (numpy hands one row to gemv, OpenBLAS rounds
        # a partial block of four rows apart and picks kernels by size), so
        # the dense layers multiply, and ScaleNorm sums, each run of
        # consecutive clients with the same short count again on exactly
        # those rows, as a lone client would
        self.short = []
        n = counts.tolist()
        start = 0
        for i in range(1, len(n) + 1):
            if i == len(n) or n[i] != n[start]:
                if n[start] < width:
                    self.short.append((slice(start, i), n[start]))
                start = i


def _pad_rows(parts, width):
    """Per-client (n_c, ...) arrays as one (A, width, ...) stack, zero
    past each client's rows."""
    if len(parts) == 1 and len(parts[0]) == width:
        return parts[0][None]
    out = np.zeros((len(parts), width) + parts[0].shape[1:])
    for c, part in enumerate(parts):
        out[c, :len(part)] = part
    return out


class Layer:
    kind = None
    ROLES = {}  # parameter role -> attribute holding that tensor

    def forward(self, x, train, rows=None):
        raise NotImplementedError

    def backward(self, dy):
        """Returns (dx, {role: grad}) for the most recent forward; roles
        left out have zero gradient.  A layer that can open a network
        (Dense, Conv2d) also takes `input_grad`: when it is false, dx is
        None and is not computed."""
        raise NotImplementedError


class Dense(Layer):
    kind = "dense"
    ROLES = {"kernel": "w", "bias": "b"}

    def __init__(self, n_in, n_out, rng):
        self.w = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(1, n_in, n_out))
        self.b = np.zeros((1, n_out))

    def forward(self, x, train, rows=None):
        w = self.w[:len(x)]
        flat = x.reshape(x.shape[0], x.shape[1], -1)
        short = () if rows is None else rows.short
        self._cache = (flat, x.shape, short)
        y = flat @ w + self.b[:len(x), None]
        for run, n in short:
            y[run, :n] = flat[run, :n] @ w[run] + self.b[run, None]
        return y

    def backward(self, dy, input_grad=True):
        flat, shape, short = self._cache
        dw = flat.transpose(0, 2, 1) @ dy
        db = dy.sum(axis=1)
        if not input_grad:
            return None, {"kernel": dw, "bias": db}
        w = self.w[:len(dy)]
        dx = dy @ w.transpose(0, 2, 1)
        for run, n in short:
            dx[run, :n] = dy[run, :n] @ w[run].transpose(0, 2, 1)
        return dx.reshape(shape), {"kernel": dw, "bias": db}


class Conv2d(Layer):
    """The kernels convolve one client's images at a time, on its real rows
    only: each call has exactly the shapes of a lone client's, so a stacked
    batch costs one kernel call per client.  The forward's im2col matrices
    are kept for the backward."""

    kind = "conv2d"
    ROLES = {"kernel": "w", "bias": "b"}

    def __init__(self, c_in, c_out, ksize, rng):
        fan_in = c_in * ksize * ksize
        self.w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(1, ksize, ksize, c_in, c_out))
        self.b = np.zeros((1, c_out))

    def forward(self, x, train, rows=None):
        counts = [x.shape[1]] * len(x) if rows is None else rows.counts
        parts = [x[c, :n] for c, n in enumerate(counts)]
        cols = [kernels.im2col(part, self.w.shape[1]) for part in parts]
        self._cache = (parts, cols, x.shape[1])
        return _pad_rows([kernels.conv2d_forward(part, self.w[c], self.b[c], cols[c])
                          for c, part in enumerate(parts)], x.shape[1])

    def backward(self, dy, input_grad=True):
        parts, cols, width = self._cache
        dx, dw, db = zip(*(kernels.conv2d_backward(part, self.w[c], dy[c, :len(part)],
                                                   cols[c], input_grad)
                           for c, part in enumerate(parts)))
        grads = {"kernel": np.stack(dw), "bias": np.stack(db)}
        return (_pad_rows(dx, width) if input_grad else None), grads


class ScaleNorm(Layer):
    """Per-channel affine on standardized activations.

    Training mode standardizes each client's batch with its own statistics
    (reduced over its real rows and every axis but the channel axis) and
    updates that client's running statistics; eval mode uses the running
    statistics.  gamma starts at 1, beta at 0.  Padding rows of a stacked
    batch are left out of every sum, carry an output that nothing reads,
    and get a zero input gradient.
    """

    kind = "scale-norm"
    ROLES = {"scale": "gamma", "bias": "beta",
             "running_mean": "running_mean", "running_var": "running_var"}
    EPS = 1e-5
    MOMENTUM = 0.9

    def __init__(self, channels):
        self.gamma = np.ones((1, channels))
        self.beta = np.zeros((1, channels))
        self.running_mean = np.zeros((1, channels))
        self.running_var = np.ones((1, channels))

    @staticmethod
    def _sums(x, short):
        """Per-client channel sums (A, C) of x (A, B, ..., C): one GEMV per
        client over all its rows, then one per short run over its real rows."""
        a, c = x.shape[0], x.shape[-1]
        s = kernels.channel_sums(x.reshape(a, -1, c))
        for run, n in short:
            s[run] = kernels.channel_sums(x[run, :n].reshape(run.stop - run.start, -1, c))
        return s

    def forward(self, x, train, rows=None):
        a = len(x)
        expand = (slice(None),) + (None,) * (x.ndim - 2)  # (A, C) -> (A, 1, ..., C)
        short, n = (), None
        if train:
            per_row = x[0, 0].size // x.shape[-1]  # values of a channel in one row
            n = x.shape[1] * per_row
            if rows is not None:
                short, n = rows.short, (rows.counts * per_row)[:, None]
            mu = self._sums(x, short) / n
            xc = x - mu[expand]
            var = self._sums(xc * xc, short) / n
            for running, stat in ((self.running_mean, mu), (self.running_var, var)):
                running = running[:a]
                running *= self.MOMENTUM
                running += (1.0 - self.MOMENTUM) * stat
        else:
            var = self.running_var[:a]
            xc = x - self.running_mean[:a][expand]
        ivar = 1.0 / np.sqrt(var + self.EPS)
        xhat = xc * ivar[expand]
        gamma = self.gamma[:a]
        self._cache = (xhat, gamma * ivar, n, short, expand)
        return xhat * gamma[expand] + self.beta[:a][expand]

    def backward(self, dy):
        xhat, scale, n, short, expand = self._cache
        dbeta = self._sums(dy, short)
        dgamma = self._sums(dy * xhat, short)
        if n is None:
            dx = dy * scale[expand]
        else:
            # dx = gamma * ivar * (dy - dbeta / n - xhat * dgamma / n)
            dx = dy - (dbeta / n)[expand]
            dx -= xhat * (dgamma / n)[expand]
            dx *= scale[expand]
            for run, k in short:
                dx[run, k:] = 0.0
        return dx, {"scale": dgamma, "bias": dbeta}


class Relu(Layer):
    kind = "relu"

    def forward(self, x, train, rows=None):
        self._cache = x > 0
        return x * self._cache

    def backward(self, dy):
        return dy * self._cache, {}


class MaxPool2(Layer):
    kind = "maxpool"

    def forward(self, x, train, rows=None):
        # the clients' batches pool as one batch of images
        y, arg = kernels.maxpool2_forward(x.reshape((-1,) + x.shape[2:]))
        self._cache = (arg, x.shape)
        return y.reshape(x.shape[:2] + y.shape[1:])

    def backward(self, dy):
        arg, shape = self._cache
        dx = kernels.maxpool2_backward(arg, dy.reshape((-1,) + dy.shape[2:]),
                                       (shape[0] * shape[1],) + shape[2:])
        return dx.reshape(shape), {}


# ---------------------------------------------------------------------------
# network

class Network:
    """Ordered layer stack whose parameters live in one (C, P) matrix: one
    row per client, each row a vector in `params.layout`.

    Each layer attribute is rebound to a (C, *shape) view of that matrix,
    so the layers compute on the rows that the optimizer, aggregation and
    extraction read and write.  A network built from layers holds one
    client, and its `params` is that client's vector; `stacked(C)` gives a
    network of the same architecture with C rows, whose `params.vec` is the
    whole (C, P) matrix.
    """

    def __init__(self, layers, input_shape, n_classes, descriptor):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.n_classes = n_classes
        self.descriptor = descriptor
        self._forward_done = False
        params = ModelParams({(i, role): getattr(layer, attr)[0]
                              for i, layer in enumerate(self.layers)
                              for role, attr in layer.ROLES.items()})
        self._bind(params.layout, params.vec[None])

    def _bind(self, layout, stack):
        self._stack = stack
        self.clients = len(stack)
        self.params = ModelParams.wrap(layout, stack[0] if self.clients == 1 else stack)
        for (i, role), shape in layout.shapes:
            view = stack[:, layout.slices[(i, role)]].reshape((self.clients,) + shape)
            setattr(self.layers[i], self.layers[i].ROLES[role], view)

    def stacked(self, clients):
        """A network of this architecture with `clients` rows, each a copy
        of this network's parameters (its first row's, if stacked)."""
        net = copy.copy(self)
        net.layers = [copy.copy(layer) for layer in self.layers]
        net._forward_done = False
        net._bind(self.params.layout, np.repeat(self._stack[:1], clients, axis=0))
        return net

    def get_params(self):
        return self.params.clone()

    def set_params(self, mp):
        """Copy `mp` into the parameters; one vector fills every row."""
        if mp.layout != self.params.layout:
            raise StateError("parameter layout differs from this network's")
        np.copyto(self.params.vec, mp.vec)

    def forward(self, x, train=False, rows=None):
        """Logits of a batch.  x is (B, *input_shape) on a one-client
        network, or (A, B, *input_shape): one batch for each of the first A
        clients.  `rows` gives each client's count of real rows when the
        stacked batches are padded to B rows."""
        x = np.asarray(x, dtype=np.float64)
        self._single = x.shape[1:] == self.input_shape
        if self._single and self.clients == 1:
            x = x[None]
        elif self._single or x.shape[2:] != self.input_shape or len(x) > self.clients:
            raise ShapeError(f"input shape {x.shape[1:]} != expected {self.input_shape}"
                             + ("" if self.clients == 1 else f" stacked for {self.clients} clients"))
        if rows is not None:
            rows = _Rows(np.asarray(rows), x.shape[1])
        for layer in self.layers:
            x = layer.forward(x, train, rows)
        self._forward_done = True
        return x[0] if self._single else x

    def backward(self, dlogits, input_grad=True):
        """Gradients w.r.t. every parameter for the most recent forward, one
        row per client of a stacked forward.

        With `input_grad` (the default) it also stores the gradient w.r.t.
        the network input in ``input_grad``, for gradient-based input
        attacks; without it the first layer skips that product and
        ``input_grad`` is None.
        """
        if not self._forward_done:
            raise StateError("backward called before forward")
        layout = self.params.layout
        dy = dlogits[None] if self._single else dlogits
        grads = np.zeros((len(dy), layout.size))
        for idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[idx]
            dy, layer_grads = layer.backward(dy) if idx else layer.backward(dy, input_grad)
            for role, g in layer_grads.items():
                grads[:, layout.slices[(idx, role)]] = g.reshape(len(g), -1)
        if self._single:
            dy, grads = (None if dy is None else dy[0]), grads[0]
        self.input_grad = dy
        return ModelParams.wrap(layout, grads)

    def predict(self, x):
        """Classes of one batch (B, *input_shape) on a one-client network.
        It is passed on stacked, as (1, B, *input_shape), so that forward
        rejects a one-sample batch with an extra axis."""
        return self.forward(np.asarray(x)[None])[0].argmax(axis=1)


# ---------------------------------------------------------------------------
# losses / metrics

def _check_labels(labels, n_classes):
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ShapeError(f"label out of range for {n_classes} classes")


def _xent(logits, labels):
    """Per-row cross-entropy of (..., K) logits against (...) labels.

    Returns (logp, dlogits): each row's log-softmax of its label, and the
    unscaled gradient softmax - onehot.  Labels are not range-checked here.
    """
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    k = logits.shape[-1]
    rows, flat = np.arange(labels.size), labels.reshape(-1)
    logp = (z - np.log(total)).reshape(-1, k)[rows, flat]
    dlogits = e / total
    dlogits.reshape(-1, k)[rows, flat] -= 1.0
    return logp.reshape(labels.shape), dlogits


def cross_entropy(logits, labels):
    """Mean negative log-softmax of the true class.  Returns (loss, dlogits)."""
    labels = np.asarray(labels)
    _check_labels(labels, logits.shape[1])
    logp, dlogits = _xent(logits, labels)
    dlogits /= len(labels)
    return -logp.mean(), dlogits


def accuracy(net, inputs, labels):
    return float((net.predict(inputs) == np.asarray(labels)).mean())


# ---------------------------------------------------------------------------
# optimization

class SgdMomentum:
    """Plain momentum SGD on the whole vector: v <- m*v + g ; p <- p - lr*v.
    Normalization statistics have zero gradient, so they stay put."""

    def __init__(self, params, momentum):
        self.velocity = np.zeros(params.vec.shape)
        self.momentum = momentum

    def step(self, params, grads, lr):
        """On stacked (C, P) parameters, `grads` may hold fewer rows: only
        those leading clients move (the rest keep parameters and velocity),
        and `lr` may be a column of per-client rates."""
        if params.layout != grads.layout:
            raise StateError("gradient layout differs from parameters")
        rows = slice(len(grads.vec)) if grads.vec.ndim == 2 else slice(None)
        v = self.velocity[rows]
        v *= self.momentum
        v += grads.vec
        params.vec[rows] -= lr * v


def _mean_nll(logp, start, count):
    """-logp[i, start[i]:start[i] + count[i]].mean() for every row i (0
    where count[i] is 0), each slice summed as numpy sums it alone."""
    out = np.zeros(len(count))
    for c in set(count.tolist()) - {0}:
        at = np.flatnonzero(count == c)
        out[at] = -(logp[at[:, None], start[at, None] + np.arange(c)].sum(axis=1) / c)
    return out


def sgd_epochs(net, inputs, labels, epochs, lr, momentum, batch, stream,
               lr_decay=1.0, triggers=None, reg=None, keep=()):
    """Minibatch momentum SGD on  L = L_main + alpha * L_trigger + beta * R  for
    every client (parameter row) of `net` at once.

    Client c trains on inputs[c], labels[c].  Its epoch e visits the rows in
    the order ``rng_for(*stream, e).permutation(n_c)``; its learning rate is
    multiplied by `lr_decay` after each of its epochs.  triggers[c] =
    (inputs, labels, alpha, count, rng) extends every batch of client c
    with `count` trigger rows drawn with replacement by `rng` (batch
    poisoning).  reg[c] = (fn, key, beta) adds a regularizer:
    ``fn(params, key, grad, beta)`` returns R at client c's live parameters
    and adds beta * dR/dparams into grad, client c's row of the step's
    gradient.  Either list may be None.

    Each step trains the clients that still have batches as one stacked
    batch, every client's rows padded to the widest.  Returns, per client,
    the per-batch losses as a (3, epochs, batches) array: main, trigger and
    regularizer terms; and, for each entry e of `keep` (0 <= e <= epochs),
    a copy of the parameters shaped like ``net.params`` that holds every
    client's row as it stood after that client's first e epochs.  No shuffle,
    rate or velocity depends on `epochs`, so that copy equals the parameters
    a run of e epochs ends with.
    """
    if not all(0 <= e <= epochs for e in keep):
        raise ShapeError(f"kept epochs must lie in [0, {epochs}], got {list(keep)}")
    n_clients = len(labels)
    triggers = triggers or [None] * n_clients
    reg = reg or [None] * n_clients
    trig_rows = [0 if t is None else t[3] for t in triggers]
    # no step holds more rows than the largest client has, so a larger batch
    # changes no step, only the size of the step table
    batch = min(batch, max(1, *(len(y) for y in labels)))
    per_epoch = [-(-len(y) // batch) for y in labels]
    # most steps first, so that the clients still training are the leading
    # rows; then most trigger rows, so that equal batch widths sit together
    order = sorted(range(n_clients), key=lambda c: (-per_epoch[c], -trig_rows[c]))
    stack = net._stack
    stack[:] = stack[order]
    epoch_rates = []
    for _ in range(epochs):
        epoch_rates.append(lr)
        lr *= lr_decay

    # step s trains rows [0, active[s]) on idx[s], indices into one pool of
    # every client's samples and trigger samples (-1: a zero row, padding):
    # client i's shuffled batch rows, then its trigger rows.  clean, counts
    # and epoch hold each step's batch rows, all its rows and its epoch
    total, width = epochs * per_epoch[order[0]], batch + max(trig_rows)
    idx = np.full((total, n_clients, width), -1)
    clean, counts, epoch = (np.zeros((total, n_clients), dtype=int) for _ in range(3))
    weight = np.zeros(n_clients)  # alpha / count: a trigger row's loss weight
    pool_x, pool_y, perms = [], [], {}
    for i, c in enumerate(order):
        x, y = inputs[c], np.asarray(labels[c])
        _check_labels(y, net.n_classes)
        n, m = len(y), per_epoch[c]
        steps, offset = epochs * m, sum(len(p) for p in pool_y)
        step, col = np.divmod(np.arange(n), batch)
        for e in range(epochs):
            if (e, n) not in perms:
                perms[e, n] = rng_for(*stream, e).permutation(n)
            idx[e * m + step, i, col] = perms[e, n] + offset
        clean[:steps, i] = np.tile(np.minimum(batch, n - np.arange(m) * batch), epochs)
        counts[:steps, i] = clean[:steps, i] + trig_rows[c]
        epoch[:steps, i] = np.repeat(np.arange(epochs), m)
        if triggers[c] is not None:
            tx, ty, alpha, count, trig_rng = triggers[c]
            _check_labels(ty, net.n_classes)
            picks = trig_rng.integers(0, len(ty), size=(steps, count))
            idx[np.arange(steps)[:, None], i, clean[:steps, i, None] + np.arange(count)] = (
                picks + offset + n)
            weight[i] = alpha / max(count, 1)
            x, y = np.concatenate([x, tx]), np.concatenate([y, ty])
        pool_x.append(x)
        pool_y.append(y)
    # div and mul scale each row's loss gradient: 1/rows for batch rows,
    # alpha/count for trigger rows, 0 for padding
    col, k = np.arange(width), clean[..., None]
    div = np.where(col < k, k, 1.0)
    mul = np.where(col < k, 1.0, np.where(col < counts[..., None], weight[:, None], 0.0))
    rates = np.asarray(epoch_rates)[epoch][..., None]
    pool_x = np.concatenate(pool_x + [np.zeros((1,) + pool_x[0].shape[1:])])
    pool_y = np.concatenate(pool_y + [np.zeros(1, dtype=pool_y[0].dtype)])
    active = (counts > 0).sum(axis=1).tolist()
    widest = counts.max(axis=1)
    padded = ((counts != widest[:, None]) & (counts > 0)).any(axis=1).tolist()
    poisoned = max(trig_rows) > 0

    layout = net.params.layout
    params = ModelParams.wrap(layout, stack)
    regs = [(i, ModelParams.wrap(layout, stack[i]), *reg[c])
            for i, c in enumerate(order) if reg[c] is not None]
    logp = np.zeros((total, n_clients, width))
    feat = np.zeros((total, n_clients))
    opt = SgdMomentum(params, momentum)
    # kept[j][c] copies client c's row once it has taken keep[j] epochs of
    # steps; due maps a count of steps taken to the copies then due
    kept = [np.empty_like(stack) for _ in keep]
    due = {}
    for j, e in enumerate(keep):
        for i, c in enumerate(order):
            due.setdefault(e * per_epoch[c], []).append((j, i, c))
    for j, i, c in due.get(0, ()):
        kept[j][c] = stack[i]
    for s, a, r in zip(range(total), active, widest.tolist()):
        ix = idx[s, :a, :r]
        logits = net.forward(pool_x[ix], train=True, rows=counts[s, :a] if padded[s] else None)
        logp[s, :a, :r], dlogits = _xent(logits, pool_y[ix])
        dlogits /= div[s, :a, :r, None]
        if padded[s] or poisoned:
            dlogits *= mul[s, :a, :r, None]
        grads = net.backward(dlogits, input_grad=False)
        for i, row, fn, key, beta in regs:
            if i < a:
                feat[s, i] = fn(row, key, grads.vec[i], beta)
        opt.step(params, grads, rates[s, :a])
        for j, i, c in due.get(s + 1, ()):
            kept[j][c] = stack[i]
    stack[order] = stack.copy()

    logp, clean = logp.reshape(total * n_clients, width), clean.ravel()
    main = _mean_nll(logp, np.zeros_like(clean), clean).reshape(total, n_clients)
    trig = _mean_nll(logp, clean, counts.ravel() - clean).reshape(total, n_clients)
    losses = [None] * n_clients
    for i, c in enumerate(order):
        shape = (epochs, per_epoch[c])
        s = math.prod(shape)
        losses[c] = np.stack([main[:s, i], trig[:s, i], feat[:s, i]]).reshape((3,) + shape)
    return losses, [ModelParams.wrap(layout, k[0] if net.clients == 1 else k) for k in kept]


def fit(net, inputs, labels, epochs, lr, seed):
    """Centralized cross-entropy training: momentum 0.9, batches of 16."""
    sgd_epochs(net, [inputs], [labels], epochs, lr, 0.9, 16, (seed, "fit"))


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


def build_cnn(hw, c_in, channels, n_classes, seed):
    """conv -> scale-norm -> relu -> maxpool blocks, then a dense head."""
    rng = rng_for(seed, "init", "cnn")
    layers = []
    prev = c_in
    side = hw
    for ch in channels:
        layers.append(Conv2d(prev, ch, 3, rng))
        layers.append(ScaleNorm(ch))
        layers.append(Relu())
        layers.append(MaxPool2())
        prev = ch
        side //= 2
    layers.append(Dense(side * side * prev, n_classes, rng))
    desc = f"cnn:{hw}x{hw}x{c_in}:{','.join(str(c) for c in channels)}:{n_classes}"
    return Network(layers, (hw, hw, c_in), n_classes, desc)


def network_from_descriptor(descriptor, params):
    """The network `descriptor` names, holding `params` (its checkpoint's).
    A malformed descriptor, or one that does not fit `params`, raises
    FormatError; one whose kernels outsize `params` does so before any
    layer is allocated."""
    try:
        family, n_in, widths, n_cls = descriptor.split(":")
        widths, n_cls = [int(v) for v in widths.split(",")], int(n_cls)
        if family == "mlp":
            dims = [int(n_in), *widths, n_cls]
            sizes = [a * b for a, b in zip(dims, dims[1:])]
            build = lambda: build_mlp(dims[0], widths, n_cls, 0)
        elif family == "cnn":
            h, w, c = (int(v) for v in n_in.split("x"))
            if h != w:
                raise ValueError("only square inputs supported")
            dims = [h, c, *widths, n_cls]
            # 3x3 kernels, then a head on the map that each 2x2 pool halves
            sizes = ([9 * a * b for a, b in zip(dims[1:-2], widths)]
                     + [(h >> len(widths)) ** 2 * widths[-1] * n_cls])
            build = lambda: build_cnn(h, c, widths, n_cls, 0)
        else:
            raise ValueError("unknown architecture family")
        if min(dims) < 1:
            raise ValueError("dimensions must be >= 1")
    except ValueError as exc:
        raise FormatError(f"bad architecture descriptor {descriptor!r}: {exc}") from None
    if min(sizes) < 1 or sum(sizes) > params.vec.size:
        raise FormatError(f"architecture descriptor {descriptor!r} does not fit the "
                          f"checkpoint's {params.vec.size} parameters")
    net = build()
    if net.params.layout != params.layout:
        raise FormatError(f"checkpoint tensors do not fit architecture {descriptor!r}")
    net.set_params(params)
    return net
