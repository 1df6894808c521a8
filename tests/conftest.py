import numpy as np

from fedsign.feasibility import check_conditions
from fedsign.nn import cross_entropy

# ---------------------------------------------------------------------------
# reference softmax, for replays of the training loop and the cross-entropy
# gradient check

def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# independent false-positive oracle, used by the metrics unit tests and the
# acceptance suite

def pascal_tail(n, eps):
    """Binomial tail via Pascal's triangle."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return sum(row[: min(eps, n) + 1]) / 2 ** n


# ---------------------------------------------------------------------------
# independent feasibility oracles (random directions + LP), used by both the
# feasibility unit tests and the acceptance suite


def oracle_feasible_random(u_tilde, rng, n_dirs=200_000, batch=20_000):
    """Brute force: sample random unit directions, report one with a
    strictly positive profile if it exists."""
    m = u_tilde.shape[0]
    for _ in range(0, n_dirs, batch):
        dirs = rng.normal(size=(batch, m))
        hits = (dirs @ u_tilde > 0).all(axis=1)
        if hits.any():
            return dirs[np.flatnonzero(hits)[0]]
    return None


def oracle_infeasible_lp(u_tilde):
    """Independent simplex-residual check: an LP searches for y >= 0 on the
    simplex with U~ y = 0 (Gordan's second alternative)."""
    from scipy.optimize import linprog
    m, n = u_tilde.shape
    a_eq = np.vstack([u_tilde, np.ones(n)])
    b_eq = np.zeros(m + 1)
    b_eq[m] = 1.0
    res = linprog(np.zeros(n), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * n,
                  method="highs")
    if res.status == 0 and np.abs(u_tilde @ res.x).max() <= 1e-8:
        return res.x
    return None


def random_instance(rng, m=None, cols=None):
    """A random U~: Gaussian extraction columns times random bit signs."""
    m = m if m is not None else int(rng.integers(3, 7))
    cols = cols if cols is not None else int(rng.integers(2, 7))
    u = rng.normal(size=(m, cols))
    signs = rng.choice([-1.0, 1.0], size=cols)
    return u * signs


def raw_conditions(ut):
    """The sufficient conditions of U~, read with its raw Gram U~^T U~."""
    return check_conditions(ut, ut.T @ ut)


def fd_param_grad(net, x, labels, key, flat_idx, h=1e-6):
    """Central finite difference of the cross-entropy loss w.r.t. one
    parameter coordinate, probed through a train-mode forward pass."""
    arr = net.params.entries[key]  # a view: writing it moves the network's weights
    orig = arr.flat[flat_idx]
    arr.flat[flat_idx] = orig + h
    up, _ = cross_entropy(net.forward(x, train=True), labels)
    arr.flat[flat_idx] = orig - h
    dn, _ = cross_entropy(net.forward(x, train=True), labels)
    arr.flat[flat_idx] = orig
    return (up - dn) / (2 * h)


def gradcheck(net, x, labels, rng, coords_per_key=20, tol=1e-4):
    """Analytic gradients vs finite differences over random coordinates.

    Returns the worst relative error seen; raises AssertionError on the
    first coordinate exceeding `tol`.
    """
    logits = net.forward(x, train=True)
    _, dlogits = cross_entropy(logits, labels)
    grads = net.backward(dlogits)
    worst = 0.0
    for key, arr in grads.entries.items():
        if key[1] in ("running_mean", "running_var"):
            assert not arr.any()
            continue
        n = min(coords_per_key, arr.size)
        for flat_idx in rng.choice(arr.size, size=n, replace=False):
            fd = fd_param_grad(net, x, labels, key, flat_idx)
            a = arr.flat[flat_idx]
            err = abs(a - fd) / max(abs(a), abs(fd), 1e-3)
            worst = max(worst, err)
            assert err <= tol, f"{key}[{flat_idx}]: analytic {a} vs fd {fd}"
    return worst
