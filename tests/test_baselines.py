import math

import numpy as np
import pytest

import detkmed as dk
from detkmed.baselines import IMPROVEMENT_FACTOR
from detkmed.harness import run_algorithm
from detkmed.hierarchy import build_guha_partitions, guha_hierarchical
from detkmed.metric import leq, mapping_cost
from tests.conftest import line_space


def test_local_search_k_equals_n():
    sp = dk.generators.uniform_points(6, seed=0)
    sol = dk.local_search_kmedian(sp, 6)
    assert sol.cost == 0.0 and len(sol.centers) == 6


def test_local_search_finds_separated_clusters():
    pts = np.vstack([np.zeros((5, 1)), np.full((5, 1), 100.0)])
    sp = dk.WeightedMetricSpace.from_points(pts)
    sol = dk.local_search_kmedian(sp, 2)
    assert {int(c) // 5 for c in sol.centers} == {0, 1}


def test_local_search_never_exceeds_k(mid_spaces):
    for sp in mid_spaces[:6]:
        sol = dk.local_search_kmedian(sp, 3)
        assert len(sol.centers) <= 3


def test_local_search_ratio_regression(tiny_spaces):
    worst = 0.0
    for sp in tiny_spaces:
        k = 1 + sp.n % 3
        if k >= sp.n:
            continue
        sol = dk.local_search_kmedian(sp, k)
        opt, _ = dk.opt_bruteforce(sp, k)
        if opt > 0:
            worst = max(worst, sol.cost / opt)
        else:
            assert sol.cost == 0.0
    assert worst <= 5.5


def test_local_search_deterministic():
    sp = dk.generators.uniform_points(40, seed=3)
    a = dk.local_search_kmedian(sp, 5)
    b = dk.local_search_kmedian(sp, 5)
    assert a.centers == b.centers and a.cost == b.cost


def test_local_search_normalized_means_matches_means_argmin():
    sp = dk.generators.uniform_points(15, seed=4)
    nm = dk.local_search_kmedian(sp, 2, objective="normalized-means")
    opt_nm, _ = dk.opt_bruteforce(sp, 2, objective="normalized-means")
    assert nm.cost == pytest.approx(
        math.sqrt(dk.cost(sp, nm.centers, objective="means")), rel=1e-9)
    assert leq(opt_nm, nm.cost)


def test_registered_reverse_greedy_equals_res_greedy_on_v(mid_spaces):
    sp = mid_spaces[1]
    direct, _, _ = run_algorithm("reverse-greedy", sp, 2)
    via, _ = dk.res_greedy(sp, sp.all_points(), 2)
    assert direct.centers == via.centers


def test_plain_reverse_greedy_aggregate_bound(tiny_spaces):
    for sp in tiny_spaces[:10]:
        k = 1 + sp.n % 2
        opt, _ = dk.opt_bruteforce(sp, k)
        sol, cert = dk.res_greedy(sp, sp.all_points(), k, k=k)
        bound = cert.initial_cost + sum(
            2.0 / (s.size_before - k) * opt for s in cert.steps if s.size_before > k)
        assert leq(sol.cost, bound)


def test_guha_partition_schedule():
    h = build_guha_partitions(1024, 4, 2.0)
    assert h.gamma == 256.0
    assert h.depth == 3
    assert h.q == [16, 4, 2]
    assert h.structure_violations() == []


def test_guha_partitions_structure_sweep():
    for n in (16, 64, 256, 1024, 4096):
        for k in (1, 2, 4, 8):
            for delta in (2.0, 4.0):
                if delta > max(2, n / k):
                    continue
                h = build_guha_partitions(n, k, delta)
                assert h.structure_violations() == [], (n, k, delta)


def test_guha_delta_bounds():
    with pytest.raises(dk.MetricInputError):
        build_guha_partitions(100, 2, 1.5)
    with pytest.raises(dk.MetricInputError):
        build_guha_partitions(100, 2, 51.0)


def test_guha_single_level_when_delta_maxed():
    sp = dk.generators.uniform_points(16, seed=5)
    sol, metrics = guha_hierarchical(sp, 4, 4.0)
    assert metrics.hierarchy.depth == 0
    direct = dk.local_search_kmedian(sp, 4)
    assert sol.centers == direct.centers


def test_guha_identity_when_k_equals_n():
    sp = dk.generators.uniform_points(8, seed=6)
    sol, _ = guha_hierarchical(sp, 8, 2.0)
    assert sol.cost == 0.0


def test_guha_runs_and_reports(mid_spaces):
    sp = mid_spaces[2]
    sol, metrics = guha_hierarchical(sp, 2, 2.0)
    assert len(sol.centers) <= 2
    assert metrics.queries > 0
    assert metrics.mapping.shape == (sp.n,)
    # composed mapping cost upper-bounds the nearest-center solution cost
    assert leq(sol.cost, mapping_cost(sp, metrics.mapping, sp.all_points(), sp.weights))


def test_guha_means_objective(mid_spaces):
    sp = mid_spaces[3]
    sol, metrics = guha_hierarchical(sp, 2, 2.0, objective="means")
    assert sol.objective is dk.Objective.MEANS
    assert sol.cost == pytest.approx(dk.cost(sp, sol.centers, objective="means"),
                                     rel=1e-9)


def test_guha_deterministic():
    sp = dk.generators.uniform_points(64, seed=8)
    a, ma = guha_hierarchical(sp, 4, 2.0)
    b, mb = guha_hierarchical(sp, 4, 2.0)
    assert a.centers == b.centers
    assert np.array_equal(ma.mapping, mb.mapping)


def test_guha_level_recursion_bound(tiny_spaces):
    # every composed mapping stays within the measured sparsifier recursion
    from detkmed.hierarchy import audit_guha_recursion

    for i, sp in enumerate(tiny_spaces[:8]):
        k = 1 + sp.n % 2
        if sp.n < 2 * k:
            continue
        obj = "means" if i % 3 == 2 else "median"
        for level in audit_guha_recursion(sp, k, 2.0, objective=obj):
            assert level.passed, level.violations


# calibrated on the seeded grid below (worst measured 0.174), then frozen
GUHA_QUERY_CONSTANT = 0.25


def test_guha_query_regression():
    worst = 0.0
    for n in (64, 256, 1024):
        for k in (2, 4):
            for delta in (2.0, 4.0):
                if delta > n / k:
                    continue
                sp = dk.generators.uniform_points(n, seed=n + k)
                _, met = guha_hierarchical(sp, k, delta)
                worst = max(worst, met.queries / (n * k * delta * math.log2(n) ** 2))
    assert worst <= GUHA_QUERY_CONSTANT


def test_audit_sparsifier_identity_cases():
    sp = dk.generators.uniform_points(10, seed=11)
    sigma = np.arange(10)
    pi = {i: int(v) for i, v in enumerate(dk.assign_nearest(sp, [2, 7]))}
    rep = dk.audit_sparsifier(sp, sigma, pi, 2)
    assert rep.passed, rep.violations
    assert rep.beta == 0.0
    # pi identity on the sparsified points
    sigma2 = dk.sparsify(sp, [1, 6]).sigma
    rep2 = dk.audit_sparsifier(sp, sigma2, {1: 1, 6: 6}, 2)
    assert rep2.passed, rep2.violations
    assert rep2.alpha == 0.0


def test_audit_sparsifier_pins_the_lemma_arithmetic():
    sp = line_space([0, 1, 10, 11])
    sigma, pi = [0, 0, 2, 2], {0: 0, 2: 0}
    rep = dk.audit_sparsifier(sp, sigma, pi, 1)
    assert (rep.opt_full, rep.opt_sparse, rep.alpha) == (20.0, 20.0, 1.0)
    assert (rep.beta, rep.composed_cost) == (0.1, 22.0)
    assert rep.bound == pytest.approx(46.0)
    assert rep.passed, rep.violations
    # sparse optimum 18 below OPT 20: alpha is measured against the sparse one
    rep = dk.audit_sparsifier(sp, [1, 1, 2, 2], {1: 1, 2: 1}, 1)
    assert (rep.opt_full, rep.opt_sparse, rep.alpha) == (20.0, 18.0, 1.0)
    assert rep.bound == pytest.approx(46.0)
    # two sparse targets at k = 2: a zero sparse optimum, a positive inner cost
    rep = dk.audit_sparsifier(sp, sigma, pi, 2)
    assert rep.violations == ["inner OPT = 0 but inner solution cost positive"]
    # k above the target count: the sparse optimum keeps every target
    rep = dk.audit_sparsifier(sp, sigma, {0: 0, 2: 2}, 3)
    assert (rep.opt_full, rep.opt_sparse, rep.alpha, rep.beta) == (1.0, 0.0, 0.0, 2.0)
    assert rep.passed, rep.violations


def test_audit_sparsifier_end_to_end(tiny_spaces):
    for sp in tiny_spaces[:8]:
        k = 2 if sp.n > 4 else 1
        spars = dk.hierarchical_cluster(sp, k)[1].sparsified
        inner = dk.local_search_kmedian(spars.view(), k, universe=spars.points)
        pi = {int(p): int(c) for p, c in zip(spars.points, inner.assignment)}
        rep = dk.audit_sparsifier(sp, spars.sigma, pi, k)
        assert rep.passed, rep.violations


def _reference_local_search(space, k, objective="median", universe=None):
    """Exhaustive per-swap scan: one dot product per (center, candidate)
    pair, U x outside re-queried every iteration. The reference that
    local_search_kmedian must match bit for bit."""
    obj = dk.Objective(objective)
    U = space.all_points() if universe is None else np.sort(np.unique(universe))
    w = space.weights[U]
    centers = [int(c) for c in U[:k]]
    if k == U.size:
        return dk.build_solution(space, centers, obj, universe=U)
    D = space.pairwise(U, np.asarray(centers, dtype=np.int64))
    current = obj.finalize(float(np.dot(w, obj.point_cost(D.min(axis=1)))))
    while True:
        order = np.argsort(D, axis=1, kind="stable")
        d1 = D[np.arange(U.size), order[:, 0]]
        d2 = D[np.arange(U.size), order[:, 1]] if k > 1 else np.full(U.size, np.inf)
        nearest_col = order[:, 0]
        outside = [int(p) for p in U if p not in set(centers)]
        Dz = space.pairwise(U, np.asarray(outside, dtype=np.int64))
        best = (None, None, current)
        for col in range(k):
            base = obj.point_cost(np.where(nearest_col == col, d2, d1))
            for zi in range(len(outside)):
                dz = Dz[:, zi]
                total = obj.finalize(float(np.dot(w, np.minimum(base, obj.point_cost(dz)))))
                if total < best[2]:
                    best = (col, zi, total)
        col, zi, improved = best
        if col is None or improved * IMPROVEMENT_FACTOR > current:
            break
        centers[col] = outside[zi]
        D[:, col] = Dz[:, zi]
        current = improved
    return dk.build_solution(space, sorted(centers), obj, universe=U)


def _tie_heavy_corpus():
    """Weighted integer l1 grids, small-integer distance matrices (every
    matrix with entries in [1, 2] is a metric; scaled by 0.1 their sums round
    differently in different orders), the weighted grids' distances with their
    zeros stored as -0.0, and weighted random instances."""
    rng = np.random.default_rng(7)
    spaces = []
    for n in (9, 16, 23, 30):
        grid = rng.integers(0, 4, size=(n, 2)).astype(float)
        weights = rng.integers(1, 9, size=n).astype(float)
        spaces.append(dk.WeightedMetricSpace.from_points(grid, norm="l1"))
        spaces.append(dk.WeightedMetricSpace.from_points(grid, weights, norm="l1"))
        raw = np.triu(rng.integers(1, 3, size=(n, n)), 1).astype(float)
        spaces.append(dk.WeightedMetricSpace.from_matrix(raw + raw.T, weights))
        spaces.append(dk.WeightedMetricSpace.from_matrix(0.1 * (raw + raw.T)))
        spaces.append(dk.generators.random_matrix(n, seed=n, unit_weights=False))
        spaces.append(dk.generators.uniform_points(n, seed=n, unit_weights=False))
        signed = np.abs(grid[:, None] - grid[None]).sum(axis=2)
        signed[signed == 0] = -0.0
        spaces.append(dk.WeightedMetricSpace.from_matrix(signed, weights))
    # at k = 4 center 3 is swapped out, then swapped back in tied with its
    # duplicate 7: the tie goes to 3 only if it re-enters in universe order
    grid = [[3, 0], [2, 2], [0, 0], [3, 1], [0, 0], [0, 0], [2, 0], [3, 1],
            [1, 2], [2, 0], [0, 0], [0, 3], [0, 1], [1, 2], [1, 0]]
    weights = [2, 1, 8, 7, 5, 3, 4, 1, 6, 8, 2, 8, 1, 1, 7]
    spaces.append(dk.WeightedMetricSpace.from_points(grid, weights, norm="l1"))
    return spaces


def _assert_same(a, b):
    assert a.centers == b.centers
    assert a.cost.hex() == b.cost.hex()
    assert np.array_equal(a.assignment, b.assignment)


@pytest.mark.parametrize("objective", ["median", "means", "normalized-means"])
def test_local_search_matches_reference_scan(objective, monkeypatch):
    import detkmed.baselines as baselines

    rng = np.random.default_rng(11)
    checked = 0
    for sp in _tie_heavy_corpus():
        # whole space, and a weighted survivor view built the way extract_k does
        views = [(sp, None)]
        U = np.sort(rng.choice(sp.n, size=sp.n // 2 + 2, replace=False))
        w_full = np.zeros(sp.n)
        w_full[U] = rng.integers(1, 5, size=U.size)
        views.append((sp.with_weights(w_full), U))
        for view, universe in views:
            size = sp.n if universe is None else U.size
            for k in sorted({1, 2, 3, 4, 6, size - 1} & set(range(1, size))):
                ref = _reference_local_search(view, k, objective, universe)
                _assert_same(dk.local_search_kmedian(view, k, objective, universe), ref)
                checked += 1
    # the same answers when the swap table is filled a few columns at a time
    monkeypatch.setattr(baselines, "_SCAN_CHUNK", 16)
    for sp in _tie_heavy_corpus()[:4]:
        ref = _reference_local_search(sp, 3, objective)
        _assert_same(dk.local_search_kmedian(sp, 3, objective), ref)
    assert checked >= 200


@pytest.mark.parametrize("objective", ["median", "means", "normalized-means"])
def test_swap_table_window_covers_any_summation_order(objective, monkeypatch):
    # the table's keep term is a BLAS product whose summation order is the
    # build's; a sum of |U| nonnegative terms in any order lies within about
    # (|U| + 1) * eps of the true one, so entries moved that far must still
    # re-check to the swaps the exhaustive scan picks
    import detkmed.baselines as baselines

    table_of = baselines._swap_table
    rng = np.random.default_rng(5)

    def perturbed(obj, w, *args):
        table = table_of(obj, w, *args)
        eps = (w.size + 1) * np.finfo(np.float64).eps
        return table * rng.uniform(1.0 - eps, 1.0 + eps, size=table.shape)

    monkeypatch.setattr(baselines, "_swap_table", perturbed)
    for sp in _tie_heavy_corpus():
        for k in sorted({1, 2, 3, 4, 6, sp.n - 1}):
            _assert_same(dk.local_search_kmedian(sp, k, objective),
                         _reference_local_search(sp, k, objective))


def test_local_search_queries_match_reference_scan():
    sp = dk.generators.uniform_points(40, seed=3)
    n, k = sp.n, 5
    q0 = sp.oracle.query_count
    ref = _reference_local_search(sp, k)
    ref_queries = sp.oracle.query_count - q0
    # U x centers twice, U x non-centers once per iteration
    swaps = (ref_queries - 2 * n * k) // (n * (n - k)) - 1
    assert swaps >= 3
    q0 = sp.oracle.query_count
    sol = dk.local_search_kmedian(sp, k)
    assert sp.oracle.query_count - q0 == ref_queries
    _assert_same(sol, ref)
