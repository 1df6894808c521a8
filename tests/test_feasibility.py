import math

import numpy as np
import pytest
from scipy.stats import binom

from fedsign import feasibility
from fedsign.errors import KeyMismatchError
from fedsign.feasibility import (
    BORDER_TERMS,
    COND,
    WOLFE_TOL,
    _min_norm_point,
    capacity_bound,
    check_conditions,
    decide,
    stack,
    verify_certificate,
)
from fedsign.nn import build_cnn, build_mlp, rng_for
from fedsign.watermark import WatermarkKey, keygen

from conftest import oracle_feasible_random, oracle_infeasible_lp, random_instance, raw_conditions


def make_key(client_id, bits, matrix=None, coords=None, pool=None, selector=((0, "scale"),)):
    pool = pool if pool is not None else (matrix.shape[0] if matrix is not None else 4)
    return WatermarkKey(client_id, np.asarray(bits, dtype=np.int8), selector, pool,
                        coords=coords, matrix=matrix)


# ---------------------------------------------------------------------------
# stacking

def test_stack_applies_bit_signs():
    key = make_key(0, [1, -1], matrix=np.eye(2))
    np.testing.assert_array_equal(stack([key]), [[1.0, 0.0], [0.0, -1.0]])
    np.testing.assert_array_equal(key.matrix, np.eye(2))  # the key is not signed in place


def test_stack_positive_bits_equal_u():
    rng = rng_for("stack")
    keys = [make_key(k, [1, 1, 1], matrix=rng.normal(size=(5, 3)), pool=5)
            for k in range(2)]
    ut = stack(keys)
    np.testing.assert_array_equal(ut, np.concatenate([key.matrix for key in keys], axis=1))
    assert ut.shape == (5, 6)


def test_stack_matches_elementwise_oracle():
    rng = rng_for("stack-oracle")
    keys = [make_key(k, rng.choice([-1, 1], size=4), matrix=rng.normal(size=(6, 4)), pool=6)
            for k in range(3)]
    ut = stack(keys)
    for k, key in enumerate(keys):
        for j in range(4):
            for i in range(6):
                assert ut[i, 4 * k + j] == key.bits[j] * key.matrix[i, j]


def test_stack_orders_by_client_id():
    rng = rng_for("stack-order")
    a = make_key(1, [1], matrix=rng.normal(size=(3, 1)), pool=3)
    b = make_key(0, [1], matrix=rng.normal(size=(3, 1)), pool=3)
    np.testing.assert_array_equal(stack([a, b])[:, 0], b.matrix[:, 0])


def test_stack_rejects_mixed_selectors():
    a = make_key(0, [1], matrix=np.eye(1), pool=1, selector=((0, "scale"),))
    b = make_key(1, [1], matrix=np.eye(1), pool=1, selector=((2, "kernel"),))
    with pytest.raises(KeyMismatchError):
        stack([a, b])


def test_stack_materializes_coordinate_keys():
    key = make_key(0, [1, -1], coords=np.array([2, 0]), pool=4)
    ut = stack([key])
    np.testing.assert_array_equal(ut[:, 0], [0, 0, 1, 0])
    np.testing.assert_array_equal(ut[:, 1], [-1, 0, 0, 0])


def test_stack_is_exact_on_mixed_keys_and_leaves_them_unchanged():
    """Coordinate and matrix keys of one pool, given out of client order:
    U~ is each key's dense columns times its bits, and no key's matrix is
    signed in place (dense() returns the matrix itself)."""
    rng = rng_for("stack-mixed")
    keys = [make_key(2, rng.choice([-1, 1], size=3), matrix=rng.normal(size=(6, 3)), pool=6),
            make_key(0, rng.choice([-1, 1], size=2), coords=np.array([5, 1]), pool=6),
            make_key(1, rng.choice([-1, 1], size=4), matrix=rng.normal(size=(6, 4)), pool=6)]
    before = [key.dense().copy() for key in keys]
    ut = stack(keys)
    ordered = sorted(keys, key=lambda k: k.client_id)
    assert np.array_equal(ut, np.concatenate([k.dense() * k.bits for k in ordered], axis=1))
    for key, dense in zip(keys, before):
        assert np.array_equal(key.dense(), dense)


# ---------------------------------------------------------------------------
# rank and conditions

def test_conditions_accept_a_precomputed_gram():
    """The raw Gram U~^T U~ and the Gram of U~'s unit columns give the same
    conditions."""
    for seed in range(20):
        ut = random_instance(rng_for("gram-share", seed), m=5, cols=7)
        assert check_conditions(ut, ut.T @ ut) == check_conditions(ut, unit_gram(ut)), seed


def test_conditions_identity():
    assert raw_conditions(np.eye(3)) == (True, False, False)


def test_conditions_all_ones():
    assert raw_conditions(np.ones((4, 2))) == (False, True, True)


def test_condition_rank_equals_full_column_rank_on_wide_and_tall():
    """The rank condition, read from U~, is the full column rank of the
    unsigned U."""
    for seed in range(60):
        rng = rng_for("cond-rank-shape", seed)
        m, cols = (int(v) for v in rng.integers(1, 9, size=2))
        u = rng.normal(size=(m, cols))
        if seed % 3 == 0:  # a repeated column drops the rank of a tall U
            u[:, -1] = u[:, 0]
        ut = u * rng.choice([-1.0, 1.0], size=cols)
        assert raw_conditions(ut)[0] == (np.linalg.matrix_rank(u) == cols), seed


def test_condition_rank_holds_for_random_tall_matrices():
    for seed in range(100):
        rng = rng_for("cond1-mc", seed)
        cols = int(rng.integers(2, 7))
        m = cols + int(rng.integers(0, 4))
        assert raw_conditions(random_instance(rng, m=m, cols=cols))[0]


# ---------------------------------------------------------------------------
# decide

def test_decide_orthonormal_columns_feasible():
    ut = np.eye(4)
    report = decide(ut)
    assert report.status == "feasible"
    assert verify_certificate(ut, report)
    assert (report.w @ ut).min() > 1e-9


def test_decide_opposite_columns_infeasible():
    c = np.array([[1.0], [2.0], [-0.5]])
    ut = np.hstack([c, -c])
    report = decide(ut)
    assert report.status == "infeasible"
    assert verify_certificate(ut, report)
    np.testing.assert_allclose(report.y, [0.5, 0.5], atol=1e-6)


def test_decide_zero_column_infeasible():
    ut = np.array([[1.0, 0.0], [0.0, 0.0]])
    report = decide(ut)
    assert report.status == "infeasible"
    assert report.y[1] == 1.0


def test_decide_matches_oracles_on_random_instances():
    for seed in range(40):
        rng = rng_for("decide-mc", seed)
        ut = random_instance(rng)
        report = decide(ut)
        assert report.status != "unknown", seed
        assert verify_certificate(ut, report)
        if report.status == "feasible":
            assert oracle_infeasible_lp(ut) is None
        else:
            assert oracle_feasible_random(ut, rng_for("dirs", seed)) is None


@pytest.mark.parametrize("seed", [1, 24])  # seed 1 is feasible, seed 24 infeasible
def test_decide_near_threshold_kernel_keys(seed):
    """480 Gaussian kernel columns on a 256-entry pool sit at the
    separability threshold; both branches must still come with a
    verified certificate that agrees with the LP."""
    net = build_mlp(32, [16, 16], 4, seed=0)
    ut = stack([keygen(net, k, 40, 0, "kernel", seed=seed) for k in range(12)])
    assert ut.shape == (256, 480)
    report = decide(ut)
    expected = "infeasible" if oracle_infeasible_lp(ut) is not None else "feasible"
    assert report.status == expected
    assert verify_certificate(ut, report)


def test_report_carries_iterations_and_min_norm():
    feasible = decide(np.eye(3))
    assert feasible.status == "feasible"
    assert feasible.iterations == 1  # the whole start is already optimal
    assert _min_norm_point(np.eye(3), 3)[2] >= 3  # one major cycle per entering column
    assert feasible.min_norm == pytest.approx(1 / np.sqrt(3))
    c = np.array([[1.0], [2.0], [-0.5]])
    infeasible = decide(np.hstack([c, -c]))
    assert infeasible.status == "infeasible"
    assert infeasible.iterations >= 1
    assert infeasible.min_norm < 1e-12
    for report in (feasible, infeasible):
        assert f"iterations={report.iterations} min_norm=" in report.summary()


def test_decide_invariant_to_column_permutation():
    for seed in range(10):
        rng = rng_for("perm", seed)
        ut = random_instance(rng)
        perm = rng.permutation(ut.shape[1])
        assert decide(ut).status == decide(ut[:, perm]).status


def test_any_condition_implies_feasible():
    for seed in range(25):
        rng = rng_for("cond-feasible", seed)
        ut = random_instance(rng, m=6, cols=4)  # full rank w.p. 1
        assert raw_conditions(ut)[0]
        report = decide(ut)
        assert report.status == "feasible"
        assert verify_certificate(ut, report)


def test_report_summary_renders():
    r = decide(np.eye(2))
    assert "Feasible" in r.summary()
    assert "rank=Y" in r.summary()


# ---------------------------------------------------------------------------
# the kept-corral solver against the solve-per-cycle one it replaced

def reference_min_norm_point(gram, tol=WOLFE_TOL):
    """Wolfe's algorithm with one dense solve of the corral's lifted Gram
    per minor cycle, as `_min_norm_point` was before it kept the inverse."""
    corral, weights = [int(np.argmin(np.diag(gram)))], np.ones(1)
    last, iterations = np.inf, 0
    while True:
        iterations += 1
        dots = weights @ gram[corral]
        norm2 = weights @ dots[corral]
        j = int(np.argmin(dots))
        if norm2 - dots[j] <= tol * np.diag(gram).max() or j in corral or norm2 >= last:
            return corral, weights, iterations
        corral, weights, last = corral + [j], np.append(weights, 0.0), norm2
        while True:
            affine = np.linalg.solve(gram[np.ix_(corral, corral)] + 1.0, np.ones(len(corral)))
            affine /= affine.sum()
            if (affine > 0).all():
                weights = affine
                break
            blocked = np.flatnonzero(affine <= 0)
            ratios = weights[blocked] / (weights[blocked] - affine[blocked])
            weights = weights + ratios.min() * (affine - weights)
            weights[blocked[np.argmin(ratios)]] = 0.0
            corral, weights = [c for c, wt in zip(corral, weights) if wt > 0], weights[weights > 0]


def assert_matches_reference(gram, dim, same_corral=True):
    """Same major cycles and the same point x: x^T u_j within 1e-9 for every
    j.  With `same_corral`, also the same corral as a set and the same
    weights within 1e-9.  Degenerate instances can write one x two ways (a
    duplicate column, or a point whose weight is zero in exact arithmetic
    and rounds to either sign), so there only x is compared."""
    corral, weights, iterations = _min_norm_point(gram, dim=dim)
    ref_corral, ref_weights, ref_iterations = reference_min_norm_point(gram)
    assert iterations == ref_iterations
    np.testing.assert_allclose(weights @ gram[corral], ref_weights @ gram[ref_corral],
                               rtol=0, atol=1e-9)
    if same_corral:
        assert sorted(corral) == sorted(ref_corral)
        np.testing.assert_allclose(weights[np.argsort(corral)],
                                   ref_weights[np.argsort(ref_corral)], rtol=0, atol=1e-9)


def unit_gram(u_tilde):
    gram = u_tilde.T @ u_tilde
    norms = np.sqrt(np.diag(gram))
    return gram / np.outer(norms, norms)


def assert_decide_matches_reference(ut, monkeypatch):
    report = decide(ut)
    with monkeypatch.context() as m:
        m.setattr(feasibility, "_min_norm_point",
                  lambda gram, dim, whole=False: reference_min_norm_point(gram))
        assert report.status == decide(ut).status
    return report


def degenerate_instance(rng, m=None, cols=None):
    """Gaussian columns, each after the first possibly replaced by a
    duplicate or the opposite of an earlier column, or a signed one-hot.
    The shape is drawn (2-6 rows, 2-9 columns) unless given."""
    if m is None:
        m, cols = int(rng.integers(2, 7)), int(rng.integers(2, 10))
    ut = rng.normal(size=(m, cols))
    for c in range(1, cols):
        kind = int(rng.integers(4))
        if kind in (1, 2):
            ut[:, c] = (1.0 if kind == 1 else -1.0) * ut[:, int(rng.integers(c))]
        elif kind == 3:
            ut[:, c] = 0.0
            ut[int(rng.integers(m)), c] = rng.choice([-1.0, 1.0])
    return ut


def test_min_norm_point_matches_reference_on_random_instances(monkeypatch):
    for seed in range(40):
        ut = random_instance(rng_for("decide-mc", seed))
        assert_matches_reference(unit_gram(ut), dim=ut.shape[0])
        assert_decide_matches_reference(ut, monkeypatch)


def test_min_norm_point_matches_reference_on_degenerate_instances(monkeypatch):
    for seed in range(200):
        ut = degenerate_instance(rng_for("degenerate", seed))
        assert_matches_reference(unit_gram(ut), dim=ut.shape[0], same_corral=False)
        report = assert_decide_matches_reference(ut, monkeypatch)
        assert report.status != "unknown" and verify_certificate(ut, report), seed


@pytest.mark.parametrize("n_keys, bits, seed", [(12, 40, 1), (12, 40, 24), (12, 44, 1),
                                                (10, 48, 1)])
def test_min_norm_point_matches_reference_near_threshold(n_keys, bits, seed, monkeypatch):
    net = build_mlp(32, [16, 16], 4, seed=0)
    ut = stack([keygen(net, k, bits, 0, "kernel", seed=seed) for k in range(n_keys)])
    assert_matches_reference(unit_gram(ut), dim=ut.shape[0])
    assert_decide_matches_reference(ut, monkeypatch)


def test_min_norm_point_refactors_when_rounding_breaks_the_border(monkeypatch):
    """An indefinite 'Gram' matrix makes the bordered pivot s <= 0, which
    only rounding can do to a true Gram matrix: the inverse is refactored
    from the lifted Gram, and the answer is still the reference's."""
    gram = np.array([[1.0, 0.5, -0.6], [0.5, 0.9, 0.8], [-0.6, 0.8, 1.5]])
    assert np.linalg.eigvalsh(gram)[0] < 0
    calls, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    assert_matches_reference(gram, dim=3)
    assert calls == [(3, 3)]  # the third point's border had s <= 0


def test_min_norm_point_with_fewer_buffer_slots_than_points():
    """12 points in R^3: buffers of min(N, dim + 1) + 1 = 5 points hold
    every corral, and the answer is still the reference's."""
    for seed in range(20):
        ut = random_instance(rng_for("wide-corral", seed), m=3, cols=12)
        assert_matches_reference(unit_gram(ut), dim=3)


@pytest.mark.parametrize("kind, dim, seed", [
    ("gaussian", 24, 3), ("gaussian", 32, 1), ("gaussian", 40, 1), ("gaussian", 40, 2),
    ("degenerate", 24, 9), ("degenerate", 40, 0), ("degenerate", 40, 9)])
def test_min_norm_point_matches_reference_past_the_pending_borders(kind, dim, seed, monkeypatch):
    """3 * dim points in R^dim make corrals long enough to fill the pending
    border terms: each instance folds them into the inverse at least twice,
    once with the buffer full, and drops at least one point (one Schur
    downdate, the only np.outer left)."""
    rng = rng_for("deferred", kind, dim, seed)
    ut = (random_instance(rng, m=dim, cols=3 * dim) if kind == "gaussian"
          else degenerate_instance(rng, m=dim, cols=3 * dim))
    folds, drops = [], []
    fold, outer = feasibility._fold, np.outer
    with monkeypatch.context() as m:
        m.setattr(feasibility, "_fold", lambda *args: folds.append(args[-1]) or fold(*args))
        m.setattr(np, "outer", lambda *args, **kw: drops.append(1) or outer(*args, **kw))
        assert_matches_reference(unit_gram(ut), dim=dim, same_corral=kind == "gaussian")
    assert len(folds) >= 2 and BORDER_TERMS in folds and drops, (folds, len(drops))
    report = assert_decide_matches_reference(ut, monkeypatch)
    assert report.status != "unknown" and verify_certificate(ut, report)


def test_decide_reports_the_conditions_of_u_tilde():
    """decide passes the Gram of the unit columns to check_conditions: the
    conditions are those of U~ itself, zero columns included."""
    instances = [random_instance(rng_for("unit-gram", seed)) for seed in range(30)]
    instances += [degenerate_instance(rng_for("degenerate", seed)) for seed in range(30)]
    instances += [np.array([[1.0, 0.0, 2.0], [0.5, 0.0, 1.0]]), np.ones((3, 2))]
    for ut in instances:
        report = decide(ut)
        conds = (report.cond_rank, report.cond_positive_row, report.cond_gram_positive)
        assert conds == raw_conditions(ut)


# ---------------------------------------------------------------------------
# the whole start: a well-conditioned U~ starts from every column

def well_conditioned_instance(rng):
    """Gaussian columns with N <= M/2, or a signed one-hot stack (distinct
    coordinates, as scale keys have)."""
    m = int(rng.integers(8, 41))
    cols = int(rng.integers(2, m // 2 + 1))
    if rng.integers(2):
        return random_instance(rng, m=m, cols=cols)
    ut = np.zeros((m, cols))
    ut[rng.choice(m, size=cols, replace=False), np.arange(cols)] = rng.choice([-1.0, 1.0], cols)
    return ut


def two_demo_kernel_keys():
    """Two 32-bit kernel keys on the demo MLP's 256-entry pool: the affine
    min-norm point of all 64 columns has weights <= 0."""
    net = build_mlp(32, [16, 16], 4, seed=0)
    return stack([keygen(net, k, 32, 0, "kernel", seed=7) for k in range(2)])


def test_conditions_take_one_svd_and_read_the_conditioning(monkeypatch):
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.shape) or svd(a, **kw))
    assert raw_conditions(np.diag([1.0, 1.0, 2.0 / COND])).well_conditioned
    assert not raw_conditions(np.diag([1.0, 1.0, 0.5 / COND])).well_conditioned
    wide = raw_conditions(np.eye(3, 5))  # rank 3 < 5 columns, read with no SVD
    assert wide == (False, False, False) and not wide.well_conditioned
    assert calls == [(3, 3), (3, 3)]


def test_whole_start_matches_reference_on_well_conditioned_instances():
    """The same corral as a set and the same point x as the shortest-column
    start, and decide agrees with the LP oracle."""
    instances = [well_conditioned_instance(rng_for("whole-start", seed)) for seed in range(40)]
    for ut in instances + [two_demo_kernel_keys()]:
        gram = unit_gram(ut)
        corral, weights, _ = _min_norm_point(gram, dim=ut.shape[0], whole=True)
        ref_corral, ref_weights, _ = reference_min_norm_point(gram)
        assert sorted(corral) == sorted(ref_corral)
        np.testing.assert_allclose(weights @ gram[corral], ref_weights @ gram[ref_corral],
                                   rtol=0, atol=1e-9)
        report = decide(ut)
        assert report.status == "feasible" and verify_certificate(ut, report)
        assert oracle_infeasible_lp(ut) is None


def test_whole_start_cost_is_counted(monkeypatch):
    """On the two demo kernel keys decide takes the whole start: one drop
    round, so at most 3 inverses and 2 major cycles, where the shortest
    column's start takes a major cycle per bit."""
    ut = two_demo_kernel_keys()
    calls, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    report = decide(ut)
    assert report.status == "feasible" and verify_certificate(ut, report)
    assert calls[0] == (64, 64) and 2 <= len(calls) <= 3, calls
    assert report.iterations <= 2
    assert _min_norm_point(unit_gram(ut), dim=256)[2] >= 32


def near_duplicate_instance(rng):
    """3-11 Gaussian rows and 2-4 columns, one of them another column or
    its opposite plus noise of scale 1e-9 to 1e-4.  Returns (U~, noise)."""
    m, cols = int(rng.integers(3, 12)), int(rng.integers(2, 5))
    ut = rng.normal(size=(m, cols))
    a, b = rng.choice(cols, size=2, replace=False)
    noise = 10.0 ** rng.uniform(-9, -4)
    ut[:, b] = rng.choice([-1.0, 1.0]) * ut[:, a] + noise * rng.normal(size=m)
    return ut, noise


def test_decide_never_raises_on_near_duplicate_columns():
    """A singular refactor or a non-finite affine point ends the search with
    the current corral, so decide returns a verified certificate or
    Unknown.  The LP oracle accepts |U~ y| <= 1e-8, so its status is
    compared only where the noise is 10 times that."""
    for seed in range(600):
        ut, noise = near_duplicate_instance(rng_for("near-duplicate", seed))
        report = decide(ut)
        if report.status == "unknown":
            continue
        assert verify_certificate(ut, report), seed
        if noise >= 1e-7:
            expected = "infeasible" if oracle_infeasible_lp(ut) is not None else "feasible"
            assert report.status == expected, seed


# ---------------------------------------------------------------------------
# independent oracles from the theory: Cover's counting theorem and the
# rank equivalence

def cover_fraction(n, d):
    """Cover (IEEE Trans. Electronic Computers EC-14, 1965): of the 2^n sign
    patterns of n points in general position in R^d, C(n, d) =
    2 sum_{k<d} C(n-1, k) are split by a hyperplane through the origin."""
    return 2 * sum(math.comb(n - 1, k) for k in range(d)) / 2 ** n


@pytest.mark.parametrize("d", [8, 16])
def test_decide_matches_covers_counting_theorem(d):
    """Gaussian U with uniform random bits: the fraction that decide finds
    feasible lies in the binomial interval around Cover's probability."""
    trials = 200
    for n in range(d, 3 * d + 1, d // 2):
        rng = rng_for("cover", d, n)
        feasible = 0
        for _ in range(trials):
            ut = random_instance(rng, m=d, cols=n)
            report = decide(ut)
            assert report.status != "unknown" and verify_certificate(ut, report), (d, n)
            feasible += report.status == "feasible"
        low, high = binom.interval(1 - 1e-4, trials, cover_fraction(n, d))
        assert low <= feasible <= high, (d, n, feasible, (low, high))


@pytest.mark.parametrize("seed", range(3))
def test_rank_deficient_u_with_bits_sign_z_is_infeasible(seed):
    """U z = 0 with z != 0: bits t = sign(z) give U~ |z| = 0, Gordan's
    infeasibility certificate, so decide must certify Infeasible."""
    rng = rng_for("rank-deficient", seed)
    for m, n, rank in [(24, 30, 20), (40, 48, 40), (16, 64, 16), (64, 80, 48)]:
        u = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
        z = np.linalg.svd(u)[2][-1]
        ut = u * np.sign(z)
        assert not raw_conditions(ut)[0]
        report = decide(ut)
        assert report.status == "infeasible" and verify_certificate(ut, report), (m, n, rank)


@pytest.mark.parametrize("seed", range(3))
def test_full_column_rank_u_is_feasible_for_random_bits(seed):
    rng = rng_for("full-rank", seed)
    for m, n in [(24, 24), (40, 30), (64, 48), (96, 96)]:
        ut = random_instance(rng, m=m, cols=n)
        assert raw_conditions(ut)[0]
        report = decide(ut)
        assert report.status == "feasible" and verify_certificate(ut, report), (m, n)


# ---------------------------------------------------------------------------
# disjoint-coordinate keys (the scale-mode regime) are always feasible

def test_disjoint_coordinate_keys_feasible():
    net = build_mlp(8, [16, 16], 3, seed=0)
    keys = [keygen(net, k, 8, 0, "scale", seed=3, offset=8 * k) for k in range(4)]
    ut = stack(keys)
    assert raw_conditions(ut)[0]  # one-hot disjoint columns are independent
    report = decide(ut)
    assert report.status == "feasible" and verify_certificate(ut, report)


def test_identical_coords_opposite_bits_infeasible():
    coords = np.array([0, 1])
    a = make_key(0, [1, -1], coords=coords, pool=4)
    b = make_key(1, [-1, 1], coords=coords, pool=4)
    ut = stack([a, b])
    report = decide(ut)
    assert report.status == "infeasible"
    assert verify_certificate(ut, report)


# ---------------------------------------------------------------------------
# capacity

def test_capacity_single_scale_layer():
    net = build_mlp(8, [16], 3, seed=0)
    assert capacity_bound(net, "scale") == 16


def test_capacity_adds_across_layers():
    net = build_cnn(8, 1, [8, 16], 4, seed=0)
    assert capacity_bound(net, "scale") == 24


def test_capacity_kernel_pool_element_count():
    net = build_cnn(8, 3, [8], 4, seed=0)  # one conv: 3x3x3x8 kernel
    assert capacity_bound(net, "kernel") == 216
