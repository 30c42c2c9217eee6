import numpy as np
import pytest

import detkmed as dk
from detkmed.greedy import GreedyState
from detkmed.metric import leq
from tests.conftest import line_space


def test_singleton_candidate_trivial():
    sp = line_space([0, 5, 9])
    sol, cert = dk.res_greedy(sp, [1], 1)
    assert sol.centers == (1,)
    assert cert.steps == []


def test_zero_metric_removes_smallest_ids_first():
    sp = dk.WeightedMetricSpace.from_matrix(np.zeros((5, 5)))
    sol, cert = dk.res_greedy(sp, [0, 1, 2, 3, 4], 2)
    assert sol.centers == (3, 4)
    assert [s.removed for s in cert.steps] == [0, 1, 2]
    assert all(s.cost_before == 0.0 and s.cost_after == 0.0 for s in cert.steps)


def test_line_example_against_naive():
    sp = line_space([0, 1, 2, 3, 100])
    sol, cert = dk.res_greedy(sp, sp.all_points(), 2)
    naive_centers, naive_trace = dk.naive_reverse_greedy(sp, sp.all_points(), 2)
    assert list(sol.centers) == naive_centers
    assert [s.removed for s in cert.steps] == [s.removed for s in naive_trace]


def test_duplicate_center_removed_at_no_cost():
    sp = line_space([0, 0, 7])
    state = GreedyState(sp, [0, 1, 2])
    removed, new_cost = state.step()
    assert removed == 0
    assert new_cost == 0.0


def test_all_equal_changes_tie_rule():
    sp = dk.WeightedMetricSpace.from_matrix(np.ones((4, 4)) - np.eye(4))
    state = GreedyState(sp, [0, 1, 2, 3])
    removed, _ = state.step()
    assert removed == 0


def test_step_errors_when_would_empty():
    sp = line_space([0, 1])
    state = GreedyState(sp, [0])
    with pytest.raises(dk.MetricInputError, match="cannot empty"):
        state.step()


def test_deltas_match_direct_recomputation(mid_spaces):
    for sp in mid_spaces[:8]:
        state = GreedyState(sp, sp.all_points(), objective="means")
        while state.size > 2:
            deltas = state.removal_deltas()
            base = state.current_cost()
            centers = state.centers()
            for y in centers:
                rest = [c for c in centers if c != y]
                direct = dk.cost(sp, rest, objective="means") - base
                assert abs(deltas[y] - direct) <= max(1e-12, 1e-9 * max(abs(direct), base))
            state.step()


def test_deltas_match_rebuilt_state():
    sp = dk.generators.uniform_points(30, seed=11)
    state = GreedyState(sp, sp.all_points())
    for _ in range(12):
        state.step()
    rebuilt = GreedyState(sp, state.centers())
    assert state.removal_deltas() == pytest.approx(rebuilt.removal_deltas(), rel=1e-9, abs=1e-12)
    live = {c: pts.tolist() for c, pts in state.clusters().items()}
    fresh = {c: pts.tolist() for c, pts in rebuilt.clusters().items()}
    assert live == fresh


def test_state_cost_invariant(mid_spaces):
    for sp in mid_spaces[:5]:
        state = GreedyState(sp, sp.all_points())
        assert state.current_cost() == pytest.approx(dk.cost(sp, state.centers()), rel=1e-9)
        state.step()
        assert state.current_cost() == pytest.approx(dk.cost(sp, state.centers()), rel=1e-9)


def test_clusters_partition_universe(mid_spaces):
    sp = mid_spaces[0]
    state = GreedyState(sp, sp.all_points())
    state.step()
    clusters = state.clusters()
    merged = np.sort(np.concatenate([v for v in clusters.values()]))
    assert np.array_equal(merged, sp.all_points())


def test_neighbor_lists_track_alive_set():
    sp = line_space([0, 1, 4, 9])
    state = GreedyState(sp, [0, 1, 2, 3])
    state.step()
    alive = set(state.centers())
    for row in range(sp.n):
        lst = state.neighbor_list(row)
        assert [c for c, _ in lst] == sorted(alive, key=lambda c: (sp.distance(row, c), c))
        dists = [d for _, d in lst]
        assert dists == sorted(dists)


def test_nesting_and_monotone_cost(mid_spaces):
    for sp in mid_spaces[:6]:
        sol, cert = dk.res_greedy(sp, sp.all_points(), 1)
        removed = [s.removed for s in cert.steps]
        assert len(set(removed)) == len(removed)
        for s in cert.steps:
            assert leq(s.cost_before, s.cost_after)
        sizes = [s.size_before for s in cert.steps]
        assert sizes == list(range(sp.n, 1, -1))


def test_equivalence_with_naive_across_objectives(mid_spaces):
    for i, sp in enumerate(mid_spaces):
        obj = "means" if i % 2 else "median"
        k_prime = 1 + i % 4
        sol, cert = dk.res_greedy(sp, sp.all_points(), k_prime, objective=obj)
        ncenters, ntrace = dk.naive_reverse_greedy(sp, sp.all_points(), k_prime, objective=obj)
        assert list(sol.centers) == ncenters
        assert [s.removed for s in cert.steps] == [s.removed for s in ntrace]


def test_restricted_run_with_universe_subset():
    sp = dk.generators.uniform_points(20, seed=3)
    universe = np.arange(10)
    cands = np.array([0, 3, 5, 7, 9])
    sol, cert = dk.res_greedy(sp, cands, 2, universe=universe)
    assert set(sol.centers) <= set(cands.tolist())
    assert sol.universe.size == 10
    naive_centers, _ = dk.naive_reverse_greedy(sp, cands, 2, universe=universe)
    assert list(sol.centers) == naive_centers


def test_core_trivial_path_evaluates_certificate_cost():
    sp = dk.generators.uniform_points(16, seed=5)
    before = sp.oracle.query_count
    sol, cert = dk.res_greedy(sp, np.arange(4), 4)
    assert sp.oracle.query_count == before + 16 * 4
    assert sol.centers == (0, 1, 2, 3) and cert.steps == []
    assert cert.initial_cost == cert.final_cost == sol.cost == dk.cost(sp, [0, 1, 2, 3])


def test_given_distances_replace_the_request():
    sp = dk.generators.uniform_points(30, seed=6)
    cand = np.arange(3, 25, 2)
    asked, asked_cert = dk.res_greedy(sp, cand, 4, universe=np.arange(5, 30))
    D = sp.pairwise(np.arange(5, 30), cand)
    before = sp.oracle.query_count
    given, given_cert = dk.res_greedy(sp, cand, 4, universe=np.arange(5, 30), distances=D)
    assert sp.oracle.query_count == before
    assert given.centers == asked.centers and given.cost == asked.cost
    assert given_cert.dumps() == asked_cert.dumps()
    for bad_cand, bad_D in ((cand[::-1], D[:, ::-1]), (cand, D[1:]), (np.r_[cand, cand[-1]], D)):
        with pytest.raises(dk.MetricInputError, match="ascending"):
            GreedyState(sp, bad_cand, np.arange(5, 30), distances=bad_D)


def test_certificate_roundtrip():
    sp = line_space([0, 1, 2, 9])
    _, cert = dk.res_greedy(sp, sp.all_points(), 2, k=2, eps=0.25)
    again = dk.BoundCertificate.loads(cert.dumps())
    assert again == cert


def test_rejects_bad_arguments():
    sp = line_space([0, 1, 2])
    with pytest.raises(dk.MetricInputError):
        dk.res_greedy(sp, sp.all_points(), 0)
    with pytest.raises(dk.MetricInputError):
        dk.res_greedy(sp, [5], 1)
    with pytest.raises(dk.MetricInputError):
        dk.res_greedy(sp, sp.all_points(), 1, objective="normalized-means")


def test_per_step_bound_and_aggregate(tiny_spaces):
    for sp in tiny_spaces[:12]:
        k = 1 + sp.n % 3
        if sp.n <= 2 * k:
            continue
        opt, _ = dk.opt_bruteforce(sp, k)
        _, cert = dk.res_greedy(sp, sp.all_points(), k, k=k)
        report = dk.audit_certificate(cert, opt)
        assert report.passed, report.violations


def test_means_per_step_bound(tiny_spaces):
    for sp in tiny_spaces[:8]:
        k = 1 + sp.n % 2
        if sp.n <= 2 * k + 1:
            continue
        opt, _ = dk.opt_bruteforce(sp, k, objective="means")
        _, cert = dk.res_greedy(sp, sp.all_points(), 2 * k, objective="means",
                                k=k, eps=0.1)
        report = dk.audit_certificate(cert, opt)
        assert report.passed, report.violations


def test_audit_requires_context():
    sp = line_space([0, 1, 2, 3])
    _, cert = dk.res_greedy(sp, sp.all_points(), 2)
    with pytest.raises(dk.MetricInputError, match="OPT"):
        dk.audit_certificate(cert, None, k=1)
    with pytest.raises(dk.MetricInputError, match="target k"):
        dk.audit_certificate(cert, 1.0)


def test_audit_catches_corruption():
    sp = line_space([0, 1, 2, 3, 11])
    opt, _ = dk.opt_bruteforce(sp, 2)
    _, cert = dk.res_greedy(sp, sp.all_points(), 2, k=2)
    cert.steps[0].cost_after *= 50.0
    report = dk.audit_certificate(cert, opt)
    assert not report.passed


def test_removal_sum_bounded_by_nested_cost_gap(tiny_spaces):
    # removing all of B \ A one at a time from B never beats switching to A
    rng = np.random.default_rng(0)
    for sp in tiny_spaces[:10]:
        n = sp.n
        bsz = rng.integers(2, n + 1)
        b = np.sort(rng.choice(n, size=bsz, replace=False))
        asz = rng.integers(1, bsz)
        a = np.sort(rng.choice(b, size=asz, replace=False))
        cost_b = dk.cost(sp, b)
        cost_a = dk.cost(sp, a)
        total = 0.0
        for y in b:
            if y in a:
                continue
            rest = [c for c in b if c != y]
            total += dk.cost(sp, rest) - cost_b
        assert leq(total, cost_a - cost_b)
