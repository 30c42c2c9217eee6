import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detkmed as dk
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
    with pytest.raises(dk.MetricInputError, match="empty solution"):
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
    for call in calls[:4]:
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
