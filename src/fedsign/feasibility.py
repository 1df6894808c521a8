"""Multi-client signature feasibility.

Clients' extraction matrices stack into U~, whose column (k, j) is client
k's extraction direction j times its bit j.  A common parameter vector
embeds every signature strictly iff W^T U~ > 0 has a solution, and by
Gordan's alternative exactly one of the following holds:

* some W satisfies W^T U~ > 0          (feasibility certificate W), or
* some y >= 0, y != 0 has U~ y = 0     (infeasibility certificate y).

`decide` scales the columns of U~ to unit length and forms their one Gram
matrix.  It finds p, the point nearest the origin in the convex hull of
the unit columns, with Wolfe's finite min-norm-point algorithm (Math.
Programming 11 (1976) 128-149): a non-zero p gives W and p = 0 gives y.
Unknown means that neither certificate re-verified.  The corral is kept in
buffers with the inverse of its lifted Gram and that inverse's row sums.
An append's rank-one border is kept pending, and one GEMM folds up to
BORDER_TERMS of them into the inverse; one refinement step against the
kept lifted Gram stands in for a per-cycle solve.  The search starts from
the shortest column and adds one column per major cycle, unless U~ is well
conditioned (full column rank and sigma_max <= COND * sigma_min): then it
starts from every column, less those of weight <= 0 in their affine
min-norm point, and a key set far below capacity ends in one major cycle.

Three sufficient conditions guarantee the feasible branch: full column
rank of U~ (sign flips keep the unsigned stack's rank; no SVD when U~ is
wider than tall), an all-positive row, or an entrywise-positive Gram.
"""

from dataclasses import dataclass

import numpy as np

from .errors import KeyMismatchError
from .watermark import default_selector, flatten_selected

RANK_TOL = 1e-10
STRICT_FLOOR = 1e-9
WOLFE_TOL = 1e-12
BORDER_TERMS = 16  # rank-one borders kept pending before one GEMM folds them
COND = 8.0  # sigma_max / sigma_min of U~ up to which the search starts from every column


@dataclass
class FeasibilityReport:
    cond_rank: bool
    cond_positive_row: bool
    cond_gram_positive: bool
    status: str  # feasible | infeasible | unknown
    w: np.ndarray | None = None
    y: np.ndarray | None = None
    margin: float | None = None         # min_j (W^T U~)_j when feasible
    nnls_residual: float | None = None  # max |U~ y| when infeasible
    iterations: int = 0                 # major cycles of the min-norm search
    min_norm: float | None = None       # |p|, p nearest the origin in the hull

    def summary(self):
        conds = (f"rank={'Y' if self.cond_rank else 'n'} "
                 f"positive_row={'Y' if self.cond_positive_row else 'n'} "
                 f"gram_positive={'Y' if self.cond_gram_positive else 'n'}")
        stats = f"iterations={self.iterations} min_norm={self.min_norm:.3e}"
        if self.status == "feasible":
            return f"{conds} status=Feasible margin={self.margin:.3e} {stats}"
        if self.status == "infeasible":
            return f"{conds} status=Infeasible residual={self.nnls_residual:.3e} {stats}"
        return f"{conds} status=Unknown {stats}"


# ---------------------------------------------------------------------------
# stacking

def stack(keys):
    """U~ (M x total bits): the extraction matrices column-stacked, client
    ascending and bit ascending, each column times its bit."""
    keys = sorted(keys, key=lambda k: k.client_id)
    if not keys:
        raise KeyMismatchError("no keys to stack")
    selector = keys[0].selector
    pool = keys[0].pool_size
    for key in keys[1:]:
        if key.selector != selector or key.pool_size != pool:
            raise KeyMismatchError("keys use different parameter selectors")
    ut = np.concatenate([key.dense() for key in keys], axis=1)  # a new buffer
    ut *= np.concatenate([key.bits for key in keys])
    return ut


# ---------------------------------------------------------------------------
# rank and conditions

def _rank(s):
    return int((s > RANK_TOL * s[0]).sum()) if s.size and s[0] > 0 else 0


class Conditions(tuple):
    """(rank, positive_row, gram_positive), with `well_conditioned` set
    when U~ has full column rank and sigma_max <= COND * sigma_min."""
    well_conditioned = False


def check_conditions(ut, gram):
    """The three sufficient conditions, in order: rank(U~) equals the column
    count, some row of U~ is strictly positive, the Gram matrix of U~ is
    strictly positive entrywise.  `gram` is U~^T U~, or the Gram matrix of
    the columns of U~ scaled to unit length, which has its signs.  One SVD,
    skipped when U~ is wider than tall, gives the rank and the conditioning."""
    m, n = ut.shape
    s = np.linalg.svd(ut, compute_uv=False) if m >= n else np.zeros(0)
    cond_rank = m >= n and _rank(s) == n
    conds = Conditions((cond_rank, bool((ut > 0).all(axis=1).any()), bool((gram > 0).all())))
    conds.well_conditioned = cond_rank and n > 0 and s[0] <= COND * s[-1]
    return conds


# ---------------------------------------------------------------------------
# certificates

def _fold(inv, terms, pivots, k, p):
    """Add the p pending border terms into inv[:k, :k] with one GEMM."""
    inv[:k, :k] += (terms[:p, :k].T * pivots[:p]) @ terms[:p, :k]


def _min_norm_point(gram, dim, whole=False):
    """Wolfe's algorithm for x, the point nearest the origin in the convex
    hull of points u_j in R^dim given by their Gram matrix: x is a convex
    combination of the corral.  A major cycle adds the u_j minimizing x^T u_j;
    minor cycles move x to the corral's affine min-norm point, stepping back
    to the boundary and dropping the blocking point when a weight would turn
    non-positive.  Stops when |x|^2 - min_j x^T u_j <= WOLFE_TOL max_j |u_j|^2,
    the entering point is in the corral, or rounding stops x shrinking or
    fills the buffers.  They hold min(N, dim + 1) + 1 corral points: Gram
    rows, the lifted Gram A = G_S + 1 1^T and A^-1.  An append borders A^-1
    by the rank-one term t t^T / s, t = (v, -1), v = A^-1 c, s = d - c^T v,
    which is kept pending: A^-1 = inv + T^T diag(1/s) T, so A^-1 x costs
    one k x k product plus two thin ones.  One GEMM folds the terms into
    inv when BORDER_TERMS are pending and before a drop's Schur downdate; a
    refactor from the lifted Gram replaces them.  A drop moves the last
    corral slot into the dropped one.
    The row sums b = A^-1 1 are kept too: an append sets
    b += (v/s)(sum v - 1) and b_k = (1 - sum v)/s, and a drop or a refactor
    recomputes them.  The affine point is b / sum(b), b refined once by
    b += A^-1 (1 - A b), so a minor cycle costs O(k^2).  A singular refactor
    or an affine point that is not finite ends the search, as rounding does.
    The search starts from the shortest point, which enters as an append.
    With `whole`, for linearly independent points, it starts instead from
    all of them: one inverse of their lifted Gram gives their affine
    min-norm point, the points of weight <= 0 are dropped and the rest
    solved again until every weight is positive.  Returns (corral,
    weights, major cycles)."""
    n, diag = len(gram), np.diag(gram)
    cap, stop = min(n, dim + 1) + 1, WOLFE_TOL * diag.max()
    idx, rows = np.empty(cap, np.intp), np.empty((cap, n))
    lifted, inv = np.empty((2, cap, cap))
    sums, terms, pivots = np.empty(cap), np.empty((BORDER_TERMS, cap)), np.empty(BORDER_TERMS)
    k, p, j, weights, last, iterations = 0, 0, int(np.argmin(diag)), np.ones(0), np.inf, 0

    def solve(x):  # A^-1 x with the pending terms
        pending = terms[:p, :k]
        return inv[:k, :k] @ x + (pivots[:p] * (pending @ x)) @ pending

    def result():
        return idx[:k].tolist(), weights, iterations

    if whole:
        corral = np.arange(n)
        while True:
            start = np.linalg.inv(gram[np.ix_(corral, corral)] + 1.0)
            b = start.sum(axis=1)
            weights = b / b.sum()
            if (weights > 0).all():
                break
            corral = corral[weights > 0]
        k = corral.size
        idx[:k], rows[:k], inv[:k, :k], sums[:k] = corral, gram[corral], start, b
        lifted[:k, :k] = rows[:k, corral] + 1.0
    while True:
        if k:  # a major cycle, once the corral holds a point
            iterations += 1
            dots = weights @ rows[:k]
            norm2 = weights @ dots[idx[:k]]
            j = int(np.argmin(dots))
            if norm2 - dots[j] <= stop or j in idx[:k] or norm2 >= last or k == cap:
                return result()
            last = norm2
        idx[k], rows[k] = j, gram[j]
        lifted[k, :k + 1] = lifted[:k + 1, k] = rows[:k + 1, j] + 1.0
        c = lifted[:k, k]
        v = solve(c)
        s = lifted[k, k] - c @ v
        if s > 0:
            if p == BORDER_TERMS:
                _fold(inv, terms, pivots, k, p)
                p = 0
            inv[k, :k + 1] = inv[:k + 1, k] = 0.0
            terms[p, :k], terms[p, k], terms[p, k + 1:], pivots[p] = v, -1.0, 0.0, 1.0 / s
            total = v.sum()
            sums[:k] += v * ((total - 1.0) / s)
            sums[k] = (1.0 - total) / s
            p += 1
        else:  # only rounding makes s <= 0: refactor from the kept lifted Gram,
            # which replaces the pending terms too
            try:
                inv[:k + 1, :k + 1] = np.linalg.inv(lifted[:k + 1, :k + 1])
            except np.linalg.LinAlgError:
                return result()
            sums[:k + 1], p = inv[:k + 1, :k + 1].sum(axis=1), 0
        k, weights = k + 1, np.append(weights, 0.0)
        while True:
            affine = sums[:k] + solve(1.0 - lifted[:k, :k] @ sums[:k])
            affine /= affine.sum()
            if not np.isfinite(affine).all():
                return result()
            if (affine > 0).all():
                weights = affine
                break
            blocked = np.flatnonzero(affine <= 0)
            ratios = weights[blocked] / (weights[blocked] - affine[blocked])
            weights = weights + ratios.min() * (affine - weights)
            weights[blocked[np.argmin(ratios)]] = 0.0
            if p:
                _fold(inv, terms, pivots, k, p)
                p = 0
            dropped = np.flatnonzero(~(weights > 0))
            for i in dropped:  # Schur downdate of each drop
                inv[:k, :k] -= np.outer(inv[:k, i], inv[i, :k] / inv[i, i])
            for i in dropped[::-1]:  # the last slot fills each dropped one
                k -= 1
                for buf in (inv, lifted):
                    buf[i, :k], buf[:k, i], buf[i, i] = buf[k, :k], buf[:k, k], buf[k, k]
                rows[i], idx[i], weights[i] = rows[k], idx[k], weights[k]
            weights = weights[:k]
            sums[:k] = inv[:k, :k].sum(axis=1)


def decide(ut):
    """Gordan's alternative with a certificate either way.  The columns of
    U~ are scaled to unit length first and their one Gram matrix serves
    both the conditions (its signs are those of U~^T U~) and the search.
    A non-zero p has p^T u~_j >= |p|^2 |u~_j| > 0, so W = p rescaled to
    worst margin 1; for p = 0 the convex weights of the unit columns,
    divided by the column norms and renormalised, are y.  Unknown only when
    neither verifies."""
    norms = np.sqrt(np.einsum("ij,ij->j", ut, ut))
    unit = ut / np.where(norms > 0, norms, 1.0)  # a zero column stays zero
    gram = unit.T @ unit
    conds = check_conditions(ut, gram)
    y, iterations = np.zeros(ut.shape[1]), 0
    if (norms == 0).any():  # a zero column is its own infeasibility certificate
        y[np.argmin(norms)] = 1.0
    else:
        corral, weights, iterations = _min_norm_point(gram, dim=len(ut),
                                                       whole=conds.well_conditioned)
        y[corral] = weights / norms[corral]
    stats = dict(iterations=iterations, min_norm=float(np.linalg.norm(ut @ y)))
    y /= y.sum()
    w = ut @ y  # a positive multiple of p
    reports = [FeasibilityReport(*conds, "infeasible", y=y, nnls_residual=float(np.abs(w).max()),
                                 **stats)]
    margins = w @ ut
    if margins.min() > 0:
        w = w / margins.min()  # rescale so the worst margin is exactly 1
        feasible = FeasibilityReport(*conds, "feasible", w=w, margin=float((w @ ut).min()), **stats)
        # |p|^2 above the stopping tolerance guarantees positive margins: W first
        reports.insert(0 if stats["min_norm"] ** 2 > WOLFE_TOL else 1, feasible)
    return next((report for report in reports if verify_certificate(ut, report)),
                FeasibilityReport(*conds, "unknown", **stats))


def verify_certificate(ut, report):
    """Independent re-check of whichever certificate the report carries."""
    if report.status == "feasible":
        return bool((report.w @ ut > STRICT_FLOOR).all())
    if report.status == "infeasible":
        y = report.y
        bound = STRICT_FLOOR * max(np.abs(ut).max(), 1.0) * y.sum()
        return bool((y >= 0).all() and y.sum() > 0 and np.abs(ut @ y).max() <= bound)
    return False


# ---------------------------------------------------------------------------
# capacity

def capacity_bound(net, mode):
    """Largest total bit count with guaranteed conflict-free embedding:
    the summed channel count for scale mode (disjoint coordinates), the
    flattened pool size for kernel mode."""
    selector = default_selector(net, mode)
    return flatten_selected(net.params, selector).size
