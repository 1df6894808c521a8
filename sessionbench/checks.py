"""Recomputations made apart from the program, used to check its outputs.

Only the artifact loaders of `fedsign.io` are shared with the program;
extraction, the Hamming test, stacking and the feasibility decision are
recomputed here with numpy and scipy's HiGHS.
"""

import csv
import hashlib
import math
import os

import numpy as np
from scipy.optimize import linprog

# An LP optimum t* at or below this counts as "no strictly embedding w".
LP_TOL = 1e-7


def white_box(entries, raw_key):
    """(hamming, detection rate, verdict) of sign(w^T E) against the key bits,
    with the default Hamming radius ceil(5% of the bit length)."""
    w = np.concatenate([np.asarray(entries[tuple(s)]).ravel() for s in raw_key["selector"]])
    if raw_key["coords"] is not None:
        values = w[raw_key["coords"]]
    else:
        values = w @ raw_key["matrix"]
    decoded = np.where(values >= 0, 1, -1)
    bits = raw_key["bits"].astype(np.int64)
    hamming = int((decoded != bits).sum())
    n = bits.size
    return hamming, 1.0 - hamming / n, hamming <= math.ceil(0.05 * n)


def signed_stack(raw_keys):
    """U~: every key's extraction columns, client ascending, times its bits."""
    cols = []
    for raw in sorted(raw_keys, key=lambda r: r["client_id"]):
        if raw["coords"] is not None:
            e = np.zeros((raw["pool_size"], len(raw["coords"])))
            e[raw["coords"], np.arange(len(raw["coords"]))] = 1.0
        else:
            e = raw["matrix"]
        cols.append(e * raw["bits"].astype(np.float64))
    return np.concatenate(cols, axis=1)


def lp_status(u_tilde):
    """Maximise t subject to U~^T w >= t and |w| <= 1 with HiGHS; a strictly
    embedding w exists iff the optimum is positive."""
    m, n = u_tilde.shape
    cost = np.zeros(m + 1)
    cost[-1] = -1.0
    a_ub = np.hstack([-u_tilde.T, np.ones((n, 1))])
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(n),
                  bounds=[(-1.0, 1.0)] * m + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return ("feasible" if -res.fun > LP_TOL else "infeasible"), -res.fun


def certificate_holds(u_tilde, report):
    """w^T U~ > 0 for a feasible report; y >= 0, y != 0, U~ y ~ 0 otherwise."""
    if report.status == "feasible":
        return bool((report.w @ u_tilde > 0).all())
    if report.status == "infeasible":
        y = report.y
        if (y < 0).any() or y.sum() <= 0:
            return False
        return bool(np.abs(u_tilde @ y).max() <= 1e-8 * np.abs(u_tilde).max() * y.sum())
    return False


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def digests(directory):
    """file name -> SHA-256 of every artifact in a run directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out
