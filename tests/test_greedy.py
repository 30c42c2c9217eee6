import numpy as np
import pytest

import detkmed as dk
from detkmed.greedy import GreedyState, RemovalStep, means_eps
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
    _, cert = dk.res_greedy(sp, sp.all_points(), 2, "means", k=2)
    assert cert.eps == means_eps(4, 2) == 0.5
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
        _, cert = dk.res_greedy(sp, sp.all_points(), 2 * k, objective="means", k=k)
        report = dk.audit_certificate(cert, opt, eps=0.1)
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


class _ReferenceGreedyState:
    """The sorted-cursor state the masked-argmin GreedyState replaced: each
    row's candidates stable-sorted by (distance, id) and two cursors, nearest
    and second-nearest alive, walked forward past removed slots."""

    def __init__(self, space, candidates, universe, objective):
        self.objective = dk.Objective(objective)
        self.universe = space.all_points() if universe is None else np.asarray(universe)
        self.cand = np.unique(candidates)
        self.w = space.weights[self.universe]
        self._D = space.pairwise(self.universe, self.cand)
        self._order = np.argsort(self._D, axis=1, kind="stable")
        m = self.cand.size
        self.alive = np.ones(m, dtype=bool)
        self.size = m
        self._rows = np.arange(self.universe.size)
        self._pos1 = np.zeros(self.universe.size, dtype=np.int64)
        self._pos2 = np.full(self.universe.size, 1 if m > 1 else m, dtype=np.int64)

    def centers(self):
        return [int(c) for c in self.cand[self.alive]]

    def _slot(self, pos):
        return self._order[self._rows, pos]

    def nearest(self):
        s1 = self._slot(self._pos1)
        return self.cand[s1], self._D[self._rows, s1]

    def current_cost(self):
        return self.objective.total(self.w, self._D[self._rows, self._slot(self._pos1)])

    def step(self):
        s1 = self._slot(self._pos1)
        d1 = self._D[self._rows, s1]
        d2 = self._D[self._rows, self._slot(self._pos2)]
        change = np.zeros(self.cand.size)
        np.add.at(change, s1, self.w * (self.objective.point_cost(d2)
                                        - self.objective.point_cost(d1)))
        y_slot = int(np.argmin(np.where(self.alive, change, np.inf)))
        self.alive[y_slot] = False
        self.size -= 1
        s2 = self._slot(self._pos2)
        for r in np.nonzero((s1 == y_slot) | (s2 == y_slot))[0]:
            if s1[r] == y_slot:
                self._pos1[r] = self._pos2[r]
            p = self._pos2[r] + 1
            while p < self.cand.size and not self.alive[self._order[r, p]]:
                p += 1
            self._pos2[r] = p
        return int(self.cand[y_slot]), self.current_cost()


def _reference_res_greedy(space, candidates, k_prime, objective, universe=None, k=None):
    state = _ReferenceGreedyState(space, candidates, universe, objective)
    means = k is not None and state.objective is dk.Objective.MEANS
    eps = means_eps(space.n, k) if means else None
    current = state.current_cost()
    cert = dk.BoundCertificate(candidates=tuple(state.cand.tolist()), k_prime=k_prime,
                               universe_size=state.universe.size, objective=state.objective,
                               steps=[], initial_cost=current, final_cost=None, k=k, eps=eps)
    while state.size > k_prime:
        size_before = state.size
        removed, after = state.step()
        cert.steps.append(RemovalStep(removed, size_before, current, after))
        current = after
    cert.final_cost = current
    ids, d = state.nearest()
    return tuple(state.centers()), ids, state.objective.total(state.w, d), cert


def _grid_l1_matrix(n, seed, scale):
    pts = np.random.default_rng(seed).integers(0, 3, size=(n, 3))
    return np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2) * scale


def _tie_corpus():
    spaces = []
    for s in range(6):
        n = 6 + 2 * s
        weights = np.random.default_rng(50 + s).integers(1, 4, size=n).astype(float)
        for scale in (1.0, 0.1):
            spaces.append(dk.WeightedMetricSpace.from_matrix(_grid_l1_matrix(n, s, scale)))
            spaces.append(dk.WeightedMetricSpace.from_matrix(_grid_l1_matrix(n, s, scale),
                                                             weights))
    for n in (3, 6):
        spaces.append(dk.WeightedMetricSpace.from_matrix(np.ones((n, n)) - np.eye(n)))
        spaces.append(dk.WeightedMetricSpace.from_matrix(np.zeros((n, n))))
    for s in range(3):
        spaces.append(dk.generators.clustered_points(12 + 4 * s, clusters=3, spread=0.02 * s,
                                                     seed=s, unit_weights=False))
    return spaces


def test_masked_argmin_state_matches_sorted_cursors():
    runs = 0
    for sp in _tie_corpus():
        half = sp.all_points()[::2]
        for obj in ("median", "means"):
            for cand, universe in ((sp.all_points(), None), (half, None),
                                     (sp.all_points()[1::2], half)):
                for k_prime in range(1, cand.size):
                    sol, cert = dk.res_greedy(sp, cand, k_prime, objective=obj,
                                              universe=universe, k=k_prime)
                    centers, ids, cost, ref_cert = _reference_res_greedy(
                        sp, cand, k_prime, obj, universe=universe, k=k_prime)
                    assert cert.dumps() == ref_cert.dumps()
                    assert sol.centers == centers
                    assert sol.cost.hex() == cost.hex()
                    assert np.array_equal(sol.assignment, ids)
                    runs += 1
    assert runs > 1000


def test_lockstep_batches_match_sorted_cursors():
    # four same-shaped runs on one space step as one batch; each must give
    # exactly what the sorted-cursor reference gives for it alone, from the
    # zero-step group (k' = |X|) down to k' = 1
    groups = 0
    for sp in _tie_corpus():
        pts = sp.all_points()
        h = sp.n // 2
        evens, odds = pts[::2][:h], pts[1::2][:h]
        cands = (evens, odds, pts[:h], pts[-h:])
        for universes in ((pts,) * 4, (evens, odds, odds, evens)):
            D = np.stack([sp.pairwise(u, c) for u, c in zip(universes, cands)])
            for obj in ("median", "means"):
                for k_prime in range(1, h + 1):
                    runs = dk.res_greedy_batch(sp, np.stack(cands), k_prime, obj,
                                               np.stack(universes), k=k_prime, distances=D)
                    assert len(runs) == 4
                    for (sol, cert), c, u in zip(runs, cands, universes):
                        centers, ids, cost, ref_cert = _reference_res_greedy(
                            sp, c, k_prime, obj, universe=u, k=k_prime)
                        assert cert.dumps() == ref_cert.dumps()
                        assert sol.centers == centers
                        assert sol.cost.hex() == cost.hex()
                        assert np.array_equal(sol.assignment, ids)
                    groups += 1
    assert groups > 300
