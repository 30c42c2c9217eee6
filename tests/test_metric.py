import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detkmed as dk
from detkmed import metric
from detkmed.harness import ALGORITHMS, run_algorithm
from detkmed.metric import ABS_TOL, REL_TOL, leq
from tests.conftest import line_space

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")


def test_cost_matches_definition_on_line():
    sp = line_space([0, 1, 2])
    assert dk.cost(sp, [0]) == 3.0
    assert dk.cost(sp, [0], objective="means") == 5.0
    assert dk.cost(sp, [0], objective="normalized-means") == math.sqrt(5.0)


def test_cost_zero_when_centers_cover_universe():
    sp = line_space([0, 3, 7, 11], weights=[2.0, 1.0, 5.0, 0.5])
    assert dk.cost(sp, [0, 1, 2, 3]) == 0.0


def test_cost_rejects_empty_solution():
    sp = line_space([0, 1])
    with pytest.raises(dk.MetricInputError, match="centers must be nonempty"):
        dk.cost(sp, [])


def test_cost_query_accounting_exact():
    sp = line_space(range(10))
    before = sp.oracle.query_count
    dk.cost(sp, [1, 4, 7], universe=[0, 2, 3, 5, 9])
    assert sp.oracle.query_count - before == 3 * 5


def test_distance_equals_pairwise_bit_for_bit():
    rng = np.random.default_rng(5)
    upper = np.triu(rng.random((30, 30)), 1)
    spaces = [dk.WeightedMetricSpace.from_matrix(upper + upper.T)]
    for dim in (1, 2, 3, 10):
        points = rng.normal(size=(40, dim))
        spaces += [dk.WeightedMetricSpace.from_points(points, norm=norm)
                   for norm in ("l1", "l2")]
    for sp in spaces:
        U = sp.all_points()
        single = np.array([[sp.distance(i, j) for j in U] for i in U])
        assert np.array_equal(single, sp.pairwise(U, U))


def test_distance_rejects_ids_out_of_range_before_counting():
    from detkmed.adversary import AdversaryOracle, AdversarySession

    n = 6
    spaces = [line_space(range(n)),
              dk.WeightedMetricSpace.from_matrix(
                  np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)),
              dk.WeightedMetricSpace(AdversaryOracle(AdversarySession(n, 1, 1.0)),
                                     np.ones(n))]
    # distance shares pairwise's id rule: the kernel rejects an id outside
    # [0, n) (the adversary's session does), pairwise a float or a bool
    outside = ("outside", "outside", "two distinct points")
    for sp, range_message in zip(spaces, outside):
        for i, j in ((-1, 0), (0, -1), (n, 0), (0, n), (-n - 1, 2)):
            with pytest.raises(dk.MetricInputError, match=range_message):
                sp.distance(i, j)
        for i, j in ((1.5, 0), (0, 2.0), (True, 2), (2, False)):
            with pytest.raises(dk.MetricInputError, match="1-D integer array"):
                sp.distance(i, j)
        assert sp.oracle.query_count == 0
        assert sp.distance(n - 1, 0) == sp.distance(0, n - 1)


def test_pairwise_and_id_arrays_reject_bad_ids_before_counting():
    # a negative id must not wrap around, float and bool ids must not be cast
    # to ints, and ids past the end or 2-D arrays must not raise bare numpy
    # errors; the same holds on the diagonal, which the adversary answers itself
    from detkmed.adversary import AdversaryOracle, AdversarySession

    n = 6
    spaces = [dk.WeightedMetricSpace.from_points(np.arange(6.0)[:, None]),
              dk.WeightedMetricSpace.from_matrix(
                  np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)),
              dk.WeightedMetricSpace(AdversaryOracle(AdversarySession(n, 1, 1.0)),
                                     np.ones(n))]
    bad = ([-1], np.array([1.7]), np.array([True]), [n], np.array([[0, 1]]),
           np.array([2**63], dtype=np.uint64), 3)
    for sp in spaces:
        for ids in bad:
            for rows, cols in ((ids, [0]), ([1], ids), (ids, ids)):
                with pytest.raises(dk.MetricInputError):
                    sp.pairwise(rows, cols)
        assert sp.oracle.query_count == 0
        assert sp.pairwise([], [0]).shape == (0, 1)
        sp.pairwise([5], [0])
        assert sp.oracle.query_count == 1
    sp = spaces[0]
    calls = (lambda ids: dk.cost(sp, ids), lambda ids: dk.cost(sp, [0], universe=ids),
             lambda ids: dk.build_solution(sp, ids), lambda ids: dk.assign_nearest(sp, ids),
             lambda ids: dk.res_greedy(sp, ids, 1), lambda ids: dk.sparsify(sp, ids),
             lambda ids: dk.audit_sparsifier(sp, ids, {0: 0}, 1))
    for call in calls:
        for ids in ([1.5], [True, False], [-1], [n], np.zeros((1, 1, 1), dtype=int)):
            with pytest.raises(dk.MetricInputError):
                call(ids)
    assert sp.oracle.query_count == 1
    assert dk.cost(sp, [1]) == 11.0


def _reference_pairwise(points, rows, cols, norm):
    """The point kernel before it went one coordinate at a time: a
    (rows, cols, dim) difference tensor summed over its last axis."""
    diff = points[rows][:, None, :] - points[cols][None, :, :]
    if norm == "l1":
        return np.abs(diff).sum(axis=2)
    return np.sqrt((diff * diff).sum(axis=2))


@pytest.mark.parametrize("dim", [*range(1, 18), 23, 24, 25, 127, 128, 129, 136, 300])
def test_point_kernel_matches_the_broadcast_kernel_bit_for_bit(dim, monkeypatch):
    rng = np.random.default_rng(dim)
    points = rng.normal(size=(40, dim)) * rng.choice([1e-3, 1.0, 1e3], size=dim)
    rows = rng.integers(0, 40, size=23)  # unsorted, with repeats
    cols = rng.integers(0, 40, size=17)
    shapes = [(rows, cols), (rows[:1], cols[:1]), (rows[:1], cols), (rows, cols[:1])]
    for norm in ("l1", "l2"):
        oracle = dk.PointsOracle(points, norm=norm)
        # one chunk, then 3 rows per chunk with a short last one
        for chunk in (metric._SCAN_CHUNK, 3 * 17 * dim):
            monkeypatch.setattr(metric, "_SCAN_CHUNK", chunk)
            for r, c in shapes:
                expected = _reference_pairwise(points, r, c, norm)
                got = oracle.pairwise(r, c)
                assert np.array_equal(got, expected), (norm, chunk, r.size, c.size)


# tracemalloc peak, beyond its 4 MB output, of the broadcast kernel on one
# 2048 x 256 request (measured with numpy 2.4.6)
_BROADCAST_KERNEL_PEAK = {2: 5_256_816, 64: 4_401_096}


@pytest.mark.parametrize("dim", sorted(_BROADCAST_KERNEL_PEAK))
def test_point_kernel_peak_memory_stays_under_the_broadcast_kernel(dim):
    sp = dk.WeightedMetricSpace.from_points(np.random.default_rng(0).random((2048, dim)))
    rows, cols = np.arange(2048), np.arange(256)
    sp.pairwise(rows, cols)  # as when the bound was measured: not the first call
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = sp.pairwise(rows, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base - out.nbytes <= _BROADCAST_KERNEL_PEAK[dim]


def test_matrix_oracle_keeps_its_own_matrix():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    sp = dk.WeightedMetricSpace.from_matrix(m)
    m[0, 1] = -5.0
    assert sp.distance(0, 1) == 1.0
    assert sp.oracle.diameter_bound() == 1.0
    # the point oracle and the space's weights keep their own copies too
    pts, w = np.array([[0.0], [1.0], [2.0]]), np.ones(3)
    sp = dk.WeightedMetricSpace.from_points(pts, w)
    pts[1, 0], w[0] = np.nan, -5.0
    assert sp.distance(0, 1) == 1.0
    assert sp.oracle.diameter_bound() == 2.0
    assert dk.cost(sp, [2]) == 3.0


@pytest.mark.parametrize("objective", list(dk.Objective))
def test_objective_total_of_a_block_is_each_rows_dot_bit_for_bit(objective):
    # reverse greedy prices its B runs with one total over B x |U| blocks;
    # each row's cost must keep the bits of the one-run np.dot it replaced
    rng = np.random.default_rng(7)
    for _ in range(400):
        B, n = int(rng.integers(1, 40)), int(rng.integers(1, 3000))
        w = rng.uniform(0.0, 3.0, size=(B, n)) * 10.0 ** int(rng.integers(-3, 4))
        d = rng.uniform(0.0, 2.0, size=(B, n)) * 10.0 ** int(rng.integers(-3, 4))
        costs = objective.total(w, d)
        assert costs.shape == (B,)
        for b in range(B):
            dot = float(np.dot(w[b], objective.point_cost(d[b])))
            expected = math.sqrt(dot) if objective is dk.Objective.NORMALIZED_MEANS else dot
            assert float(costs[b]).hex() == objective.total(w[b], d[b]).hex() == expected.hex()
    w, d = np.ones((3, 2)), np.array([[1.0, 2.0], [1e308, 1e308], [0.0, 0.0]])
    with pytest.raises(dk.MetricInputError, match="overflow"), np.errstate(over="ignore"):
        objective.total(w, d)


def test_cost_overflow_is_an_input_error():
    with pytest.raises(dk.MetricInputError, match="overflow"):
        dk.WeightedMetricSpace.from_points([[1e308], [-1e308], [0.0]])


def test_points_oracle_rejects_an_overflowing_diagonal():
    for norm in ("l1", "l2"):
        with pytest.raises(dk.MetricInputError, match="overflow"):
            dk.PointsOracle([[1e308], [-1e308]], norm=norm)
    with pytest.raises(dk.MetricInputError, match="overflow"):
        dk.PointsOracle([[1e200], [-1e200]], norm="l2")
    # d = 1.2e154 and d^2 = 1.44e308 are finite
    oracle = dk.PointsOracle([[6e153], [-6e153]], norm="l2")
    assert oracle.distance(0, 1) == oracle.diameter_bound() == 1.2e154


def test_points_oracle_rejects_other_shapes_at_construction():
    # before any query: a 3-D array failed at the first request, a scalar at
    # the point count
    for bad in (np.zeros((3, 2, 2)), np.float64(5.0)):
        with pytest.raises(dk.MetricInputError, match="1-D or 2-D"):
            dk.PointsOracle(bad)
    assert dk.PointsOracle(np.zeros(3)).pairwise([0], [1]).shape == (1, 1)


# point sets whose bounding-box diagonal overflows: rejected at construction
DIAGONAL_OVERFLOWS = ([[1e308], [-1e308], [0.0]], [[1e200], [-1e200], [0.0]])


@pytest.mark.parametrize("coords,weights,objective", [
    (DIAGONAL_OVERFLOWS[0], None, "median"),
    (DIAGONAL_OVERFLOWS[1], None, "means"),
    ([[0.0], [1.0]], [1e308, 1e308], "median"),
    # d = 1.2e154 is finite, but 3 * d^2 overflows
    ([[6e153], [-6e153], [0.0]], None, "means"),
])
def test_run_algorithm_rejects_cost_overflow_before_any_query(coords, weights, objective):
    if coords in DIAGONAL_OVERFLOWS:
        with pytest.raises(dk.MetricInputError, match="overflow"):
            dk.WeightedMetricSpace.from_points(coords, weights)
        return
    sp = dk.WeightedMetricSpace.from_points(coords, weights)
    for algo in sorted(ALGORITHMS):
        with pytest.raises(dk.MetricInputError, match="overflow"):
            run_algorithm(algo, sp, 1, objective)
    assert sp.oracle.query_count == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("coords,weights,objective", [
    ([[0.0], [2.0], [4.0]], [1e308] * 3, "median"),
    ([[6e153], [-6e153], [0.0]], None, "means"),
])
def test_entry_points_reject_cost_overflow_before_any_query(coords, weights, objective):
    # finite distances whose cost bound overflows: every entry point that
    # forms a cost raises before its first query
    sp = dk.WeightedMetricSpace.from_points(coords, weights)
    calls = [
        lambda: dk.cost(sp, [0], objective=objective),
        lambda: dk.opt_bruteforce(sp, 1, objective=objective),
        lambda: dk.local_search_kmedian(sp, 1, objective),
        lambda: dk.guha_hierarchical(sp, 1, 2.0, objective),
        lambda: dk.res_greedy(sp, sp.all_points(), 1, objective),
    ]
    for call in calls:
        with pytest.raises(dk.MetricInputError, match="overflow"):
            call()
        assert sp.oracle.query_count == 0


def test_diameter_bound_covers_every_distance():
    rng = np.random.default_rng(5)
    for norm in ("l1", "l2"):
        sp = dk.WeightedMetricSpace.from_points(rng.normal(size=(30, 3)), norm=norm)
        D = sp.pairwise(sp.all_points(), sp.all_points())
        assert D.max() <= sp.oracle.diameter_bound()
        assert dk.WeightedMetricSpace.from_matrix(D).oracle.diameter_bound() == D.max()


def test_single_distance_counts_once_even_on_diagonal():
    sp = line_space([0, 1])
    before = sp.oracle.query_count
    assert sp.distance(1, 1) == 0.0
    assert sp.oracle.query_count - before == 1


def test_matrix_oracle_rejects_bad_input():
    with pytest.raises(dk.MetricInputError, match="asymmetric"):
        dk.MatrixOracle(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(dk.MetricInputError, match="diagonal"):
        dk.MatrixOracle(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(dk.MetricInputError, match="negative"):
        dk.MatrixOracle(np.array([[0.0, -1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_constructors_reject_non_finite_input(bad):
    matrix = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(dk.MetricInputError, match="non-finite"):
        dk.MatrixOracle(matrix)
    with pytest.raises(dk.MetricInputError, match="finite"):
        dk.WeightedMetricSpace.from_points([[0.0, 1.0], [bad, 2.0]])
    sp = line_space([0, 1])
    for weights in ([1.0, bad], [-bad, 1.0]):
        with pytest.raises(dk.MetricInputError, match="finite"):
            sp.with_weights(weights)
        with pytest.raises(dk.MetricInputError, match="finite"):
            dk.WeightedMetricSpace.from_matrix(np.zeros((2, 2)), weights)


def test_k_must_be_an_integer_in_range():
    sp = line_space(range(6))
    calls = [
        lambda k: dk.build_partitions(sp, k),
        lambda k: dk.build_guha_partitions(sp.n, k, 2.0),
        lambda k: dk.local_search_kmedian(sp, k),
        lambda k: dk.guha_hierarchical(sp, k, 2.0),
        lambda k: dk.opt_bruteforce(sp, k),
        lambda k: dk.res_greedy(sp, sp.all_points(), k),
    ]
    for call in calls:
        for bad in (1.5, 2.0, np.float64(2.0), True, 0, -1):
            with pytest.raises(dk.MetricInputError):
                call(bad)
        call(np.int64(2))
    for call in calls[:5]:
        with pytest.raises(dk.MetricInputError):
            call(7)


def _maybe_corrupt(data, values):
    """values, with one entry replaced by NaN, +-inf or -1 a third of the time."""
    if data.draw(st.integers(0, 2)) == 2:
        i = data.draw(st.integers(0, len(values) - 1))
        values[i] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, -1.0]))
    return values


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_input_runs_to_finite_cost_or_input_error(data):
    n = data.draw(st.integers(1, 7))
    values = lambda low, size: _maybe_corrupt(
        data, data.draw(st.lists(st.floats(low, 1e308), min_size=size, max_size=size)))
    weights = values(0.0, n)
    k = data.draw(st.one_of(st.integers(1, n), st.integers(1, n), st.integers(-1, 8),
                            st.floats(-1.0, 8.0), st.booleans()))
    algo = data.draw(st.sampled_from(sorted(ALGORITHMS)))
    objective = data.draw(st.sampled_from([o.value for o in dk.Objective]))
    try:
        if data.draw(st.booleans()):
            coords = np.reshape(values(-1e308, 2 * n), (n, 2))
            space = dk.WeightedMetricSpace.from_points(coords, weights)
        else:
            matrix = np.triu(np.reshape(values(0.0, n * n), (n, n)), 1)
            space = dk.WeightedMetricSpace.from_matrix(matrix + matrix.T, weights)
        solution, _, _ = run_algorithm(algo, space, k, objective)
    except dk.MetricInputError:
        return
    assert math.isfinite(solution.cost)


def test_project_subset_is_identity():
    sp = line_space([0, 2, 5, 9])
    assert dk.project(sp, [1, 3], [0, 1, 2, 3]) == (1, 3)


def test_project_nearest_on_line():
    sp = line_space([0, 10, 4])
    assert dk.project(sp, [2], [0, 1]) == (0,)


def test_project_tie_goes_to_smallest_index():
    sp = line_space([0, 2, 1])
    # point 2 sits exactly between points 0 and 1
    assert dk.project(sp, [2], [0, 1]) == (0,)


def test_opt_bruteforce_matches_hand_examples():
    sp = line_space([0, 1, 9, 10])
    best, centers = dk.opt_bruteforce(sp, 2)
    assert best == 2.0
    assert centers == (0, 2)  # lexicographically smallest among the ties
    heavy = line_space([0, 2], weights=[3.0, 1.0])
    best, centers = dk.opt_bruteforce(heavy, 1)
    assert best == 2.0 and centers == (0,)


def test_opt_bruteforce_zero_cover():
    sp = line_space([3, 1, 4])
    best, centers = dk.opt_bruteforce(sp, 3)
    assert best == 0.0 and centers == (0, 1, 2)


def test_opt_bruteforce_budget():
    sp = line_space(range(30))
    with pytest.raises(dk.EnumerationBudgetError, match="instance too large"):
        dk.opt_bruteforce(sp, 10, budget=100)


def test_aspect_ratio():
    clique = dk.WeightedMetricSpace.from_matrix(np.ones((4, 4)) - np.eye(4))
    assert dk.aspect_ratio(clique) == 1.0
    assert dk.aspect_ratio(line_space([0, 1, 10])) == 10.0
    zeros = dk.WeightedMetricSpace.from_matrix(np.zeros((3, 3)))
    with pytest.raises(dk.MetricInputError, match="degenerate"):
        dk.aspect_ratio(zeros)


def test_aspect_ratio_asks_every_pair_once_in_row_blocks(monkeypatch):
    sp = dk.generators.uniform_points(50, seed=3)
    D = sp.pairwise(sp.all_points(), sp.all_points())
    monkeypatch.setattr(metric, "_SCAN_CHUNK", 7 * 50)  # 7 rows per block
    before = sp.oracle.query_count
    assert dk.aspect_ratio(sp) == D.max() / D[D > 0].min()
    assert sp.oracle.query_count - before == 50 * 50


def test_verify_metric_flags_triangle_violation():
    m = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
    sp = dk.WeightedMetricSpace.from_matrix(m)
    report = dk.verify_metric(sp)
    assert not report.ok
    assert (0, 1, 2) in report.triangle_violations


def test_verify_metric_passes_on_euclidean_points(mid_spaces):
    for sp in mid_spaces[:6]:
        assert dk.verify_metric(sp).ok


def test_solution_cached_cost_matches_recomputation(mid_spaces):
    for sp in mid_spaces:
        sol = dk.build_solution(sp, [0, sp.n // 2], objective="means")
        again = dk.cost(sp, sol.centers, objective="means")
        assert abs(sol.cost - again) <= max(ABS_TOL, REL_TOL * again)


@given(st.integers(0, 2**31 - 1), st.integers(5, 24))
def test_projection_lemma_holds(seed, n):
    rng = np.random.default_rng(seed)
    sp = dk.WeightedMetricSpace.from_points(rng.uniform(0, 1, (n, 2)),
                                            rng.uniform(0.1, 2.0, n))
    a = rng.choice(n, size=rng.integers(1, n // 2 + 1), replace=False)
    b = rng.choice(n, size=rng.integers(1, n // 2 + 1), replace=False)
    proj = dk.project(sp, a, b)
    assert leq(dk.cost(sp, proj), dk.cost(sp, b) + 2.0 * dk.cost(sp, a))


@given(st.integers(0, 2**31 - 1))
def test_squared_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0, 1, (3, 3))
    d = lambda i, j: float(np.linalg.norm(p[i] - p[j]))
    for eps in (0.1, 0.25, 0.5):
        lhs = d(0, 2) ** 2
        rhs = (1 + eps) * d(0, 1) ** 2 + (1 + 1 / eps) * d(1, 2) ** 2
        assert leq(lhs, rhs)


def test_improper_centers_corollary(tiny_spaces):
    # optimal centers restricted to U cost at most twice optimal over all of V
    for sp in tiny_spaces[:10]:
        n = sp.n
        rng = np.random.default_rng(n)
        for k in (1, 2, 3):
            u = np.sort(rng.choice(n, size=max(k, n // 2), replace=False))
            if u.size < k:
                continue
            opt_u, _ = dk.opt_bruteforce(sp, k, universe=u, candidates=u)
            opt_uv, _ = dk.opt_bruteforce(sp, k, universe=u, candidates=None)
            assert leq(opt_u, 2.0 * opt_uv)


def test_counter_tolerates_concurrent_increments():
    import threading

    sp = line_space(range(8))
    start = sp.oracle.query_count

    def worker():
        for _ in range(500):
            sp.distance(1, 5)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sp.oracle.query_count - start == 4 * 500


def test_verify_metric_sampled_mode():
    sp = dk.generators.random_matrix(64, seed=2)
    report = dk.verify_metric(sp, mode="sampled", samples=400, seed=1)
    assert report.ok and report.mode == "sampled"
    bad = dk.WeightedMetricSpace.from_matrix(
        np.array([[0, 1, 9], [1, 0, 1], [9, 1, 0]], dtype=float))
    report = dk.verify_metric(bad, mode="sampled", samples=500, seed=1)
    assert report.triangle_violations


def test_bulk_scans_refused_on_live_adversary():
    from detkmed.adversary import AdversaryOracle, AdversarySession

    session = AdversarySession(64, 1, 1.0)
    space = dk.WeightedMetricSpace(AdversaryOracle(session), np.ones(64))
    with pytest.raises(dk.MetricInputError, match="finalized"):
        dk.aspect_ratio(space)
    with pytest.raises(dk.MetricInputError, match="finalized"):
        dk.verify_metric(space)


def test_with_weights_shares_counter():
    sp = line_space([0, 1, 2])
    view = sp.with_weights([5.0, 1.0, 1.0])
    before = sp.oracle.query_count
    dk.cost(view, [1])
    assert sp.oracle.query_count == before + 3
    assert dk.cost(view, [1]) == 5.0 + 0.0 + 1.0
