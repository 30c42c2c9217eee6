import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import detkmed as dk
from detkmed.harness import run_algorithm
from detkmed.greedy import means_eps
from detkmed.hierarchy import GuhaHierarchy, depth_for, harmonic, range_violations, split_levels
from detkmed.metric import leq
from tests.conftest import line_space
from tests.test_acceptance import QUERY_CONSTANT_FROZEN


def test_depth_matches_ceiling_log():
    assert depth_for(8, 1) == 3
    assert depth_for(1000, 10) == 7
    assert depth_for(5, 1) == 3
    assert depth_for(16, 16) == 0
    assert depth_for(17, 16) == 1


def test_partitions_halve_in_order():
    sp = line_space(range(8))
    h = dk.build_partitions(sp, 1)
    assert h.depth == 3
    assert np.diff(h.bounds[3]).tolist() == [1] * 8
    assert h.structure_violations() == []
    sp5 = line_space(range(5))
    h5 = dk.build_partitions(sp5, 1)
    assert np.diff(h5.bounds[1]).tolist() == [3, 2]
    assert h5.part(1, 0).tolist() == [0, 1, 2]


def test_partition_size_bound_large():
    sp = dk.WeightedMetricSpace.from_points(np.zeros((1000, 1)))
    h = dk.build_partitions(sp, 10)
    assert h.depth == 7
    assert np.diff(h.bounds[7]).max() <= 9
    assert h.structure_violations() == []


def test_split_levels_is_nested_array_split():
    # q in 2..40 over n <= 5000 makes empty parts; the rule is np.array_split's
    rng = np.random.default_rng(19)
    empty = 0
    for case in range(120):
        n = int(rng.integers(0, 5001 if case % 2 else 60))
        q = rng.integers(2, 41, size=int(rng.integers(1, 4))).tolist()
        while math.prod(q) > 20_000:
            q.pop()
        levels, parts = split_levels(n, q), [np.arange(n)]
        assert len(levels) == len(q) + 1 and levels[0].tolist() == [0, n]
        for p, bounds in zip(q, levels[1:]):
            parts = [c for part in parts for c in np.array_split(part, p)]
            assert bounds.tolist() == [0] + np.cumsum([c.size for c in parts]).tolist(), (n, q)
            empty += sum(c.size == 0 for c in parts)
        assert range_violations(levels, n, q) == []
    assert empty > 0


def test_split_levels_by_two_halves_ceil_first():
    # q = 2 against the binary rule: the first child of [lo, hi) takes ceil
    for n in list(range(70)) + np.random.default_rng(2).integers(70, 5001, 30).tolist():
        ref = [np.array([0, n])]
        for _ in range(depth_for(n, 1)):
            lo, hi = ref[-1][:-1], ref[-1][1:]
            level = np.empty(2 * lo.size + 1, dtype=np.int64)
            level[::2], level[1::2] = ref[-1], lo + (hi - lo + 1) // 2
            ref.append(level)
        got = split_levels(n, [2] * depth_for(n, 1))
        assert [b.tolist() for b in got] == [b.tolist() for b in ref], n


def test_structure_violations_report_broken_bounds():
    # each mutant breaks one rule on an otherwise valid build, for both
    # hierarchies; a permuted part cannot be written down, since a part is a
    # pair of boundaries
    builds = [dk.build_partitions(dk.WeightedMetricSpace.from_points(np.zeros((n, 1))), k)
              for n, k in ((8, 1), (5, 1), (1000, 10), (1030, 2))]
    builds += [dk.build_guha_partitions(n, k, delta)
               for n, k, delta in ((1024, 4, 2.0), (4096, 8, 4.0), (64, 1, 2.0))]
    for h in builds:
        assert h.structure_violations() == []
        n, d, q = h.n, h.depth, h.q[-1] if isinstance(h, GuhaHierarchy) else 2
        sizes = np.diff(h.bounds[d])
        j = q * np.flatnonzero((sizes[::q] == sizes[1::q]) & (sizes[1::q] > 0))[0]
        mutants = {
            "whole space": (0, lambda b: np.array([0, n - 1])),
            "decrease": (d, lambda b: np.concatenate([[0, -1], b[2:]])),
            "does not refine": (d, lambda b: b + (np.arange(b.size) == q)),
            "boundaries, expected": (d, lambda b: b[:-1]),
            "sibling sizes": (d, lambda b: b + (np.arange(b.size) == j + 1)),
        }
        for fragment, (i, edit) in mutants.items():
            bounds = list(h.bounds)
            bounds[i] = edit(bounds[i])
            found = dataclasses.replace(h, bounds=bounds).structure_violations()
            assert any(fragment in v for v in found), (n, h.k, fragment, found)
        found = dataclasses.replace(h, bounds=h.bounds[:-1]).structure_violations()
        assert any("levels, expected" in v for v in found), (n, h.k, found)
        if isinstance(h, GuhaHierarchy):
            found = dataclasses.replace(h, gamma=4 * h.gamma).structure_violations()
            assert any("part count" in v and "outside" in v for v in found), (n, h.k, found)


def test_phase1_makes_no_queries():
    sp = dk.generators.uniform_points(64, seed=1)
    before = sp.oracle.query_count
    dk.build_partitions(sp, 4)
    assert sp.oracle.query_count == before


def test_build_partitions_rejects_bad_k():
    sp = line_space(range(4))
    with pytest.raises(dk.MetricInputError):
        dk.build_partitions(sp, 5)
    with pytest.raises(dk.MetricInputError):
        dk.build_partitions(sp, 0)
    for bad in (1.5, 2.0, np.float64(2.0), True):
        with pytest.raises(dk.MetricInputError):
            dk.build_partitions(sp, bad)
    with pytest.raises(dk.MetricInputError):
        dk.hierarchical_cluster(sp, 1.5)
    assert dk.build_partitions(sp, np.int64(2)).depth == 1


def test_pipeline_raises_when_phase1_queries(monkeypatch):
    import detkmed.hierarchy as hierarchy

    build = hierarchy.build_partitions

    def querying_build(space, k):
        space.distance(0, 1)
        return build(space, k)

    monkeypatch.setattr(hierarchy, "build_partitions", querying_build)
    with pytest.raises(RuntimeError, match="Phase I"):
        dk.hierarchical_cluster(line_space(range(8)), 2)


def test_phase2_small_space_keeps_everything():
    sp = dk.generators.uniform_points(6, seed=2)
    h = dk.build_partitions(sp, 3)
    v0, _ = dk.phase2(sp, h, 3)
    assert sorted(v0) == list(range(6))
    assert dk.cost(sp, v0) == 0.0


def test_phase2_zero_metric():
    sp = dk.WeightedMetricSpace.from_matrix(np.zeros((12, 12)))
    h = dk.build_partitions(sp, 2)
    v0, _ = dk.phase2(sp, h, 2)
    assert dk.cost(sp, v0) == 0.0
    assert len(v0) <= 4


def test_phase2_v0_size_and_node_sizes(mid_spaces):
    for sp in mid_spaces[:6]:
        k = 1 + sp.n % 3
        h = dk.build_partitions(sp, k)
        v0, _ = dk.phase2(sp, h, k)
        assert 1 <= len(v0) <= 2 * k
        for level in h.centers:
            for centers in level:
                assert len(centers) <= 2 * k


def test_sparsify_identity_and_conservation(mid_spaces):
    sp = mid_spaces[0]
    full = dk.sparsify(sp, sp.all_points())
    assert np.array_equal(full.sigma, sp.all_points())
    assert full.weights.sum() == pytest.approx(float(sp.weights.sum()), rel=1e-9)
    single = dk.sparsify(sp, [3])
    assert single.weights[0] == pytest.approx(float(sp.weights.sum()), rel=1e-9)
    for other in mid_spaces[1:5]:
        s = dk.sparsify(other, [0, other.n // 2, other.n - 1])
        assert s.weights.sum() == pytest.approx(float(other.weights.sum()), rel=1e-9)
        nearest = dk.assign_nearest(other, s.points)
        assert np.array_equal(nearest, s.sigma)


def test_extract_small_v0_returned_whole():
    sp = dk.generators.uniform_points(10, seed=7)
    spars = dk.sparsify(sp, [2, 8])
    sol = dk.extract_k(spars, 3)
    assert sol.centers == (2, 8)


def test_extract_duplicate_pairs():
    coords = [0.0, 0.0, 5.0, 5.0, 9.0, 9.0, 14.0, 14.0]
    sp = line_space(coords)
    spars = dk.sparsify(sp, list(range(8)))
    sol = dk.extract_k(spars, 4)
    assert len(sol.centers) == 4
    inner = dk.cost(sp.with_weights(np.ones(8)), sol.centers, universe=range(8))
    assert inner == 0.0


def test_pipeline_trivial_cases():
    sp = dk.generators.uniform_points(9, seed=9)
    sol, _ = dk.hierarchical_cluster(sp, 9)
    assert dk.cost(sp, sol.centers) == 0.0
    one = dk.generators.uniform_points(1, seed=1)
    sol1, _ = dk.hierarchical_cluster(one, 1)
    assert sol1.centers == (0,)


def test_pipeline_separated_clusters():
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 1, (20, 2))
    b = rng.uniform(100, 101, (20, 2))
    sp = dk.WeightedMetricSpace.from_points(np.vstack([a, b]))
    sol, _ = dk.hierarchical_cluster(sp, 2)
    sides = {int(c) // 20 for c in sol.centers}
    assert sides == {0, 1}
    assert sol.cost < 40 * 2.0


def test_pipeline_deterministic(mid_spaces):
    sp = dk.generators.uniform_points(50, seed=13)
    sol1, met1 = dk.hierarchical_cluster(sp, 4)
    sol2, met2 = dk.hierarchical_cluster(sp, 4)
    assert sol1.centers == sol2.centers
    assert np.array_equal(sol1.assignment, sol2.assignment)
    assert sol1.cost == sol2.cost
    assert met1.queries == met2.queries


def test_pipeline_audit_chain(tiny_spaces):
    for sp in tiny_spaces[:10]:
        k = 1 + sp.n % 2
        audit = dk.audit_pipeline(sp, k)
        assert audit.passed, audit.violations
        assert leq(audit.ratio, audit.chain_ratio_bound)


def test_pipeline_audit_means(tiny_spaces):
    for sp in tiny_spaces[:6]:
        audit = dk.audit_pipeline(sp, 2, objective="means")
        assert audit.passed, audit.violations


def test_merge_constant_value():
    # 2 * (H_{3k} - H_k) for k = 2: 2 * (1/3 + 1/4 + 1/5 + 1/6)
    assert harmonic(2, 6) == pytest.approx(1 / 3 + 1 / 4 + 1 / 5 + 1 / 6)
    assert means_eps(1024, 2) == pytest.approx(1.0 / 10.0)


def test_metrics_query_accounting():
    sp = dk.generators.uniform_points(64, seed=21)
    before = sp.oracle.query_count
    _, met = dk.hierarchical_cluster(sp, 4)
    assert met.queries == sp.oracle.query_count - before


def _digest(centers, cost, queries, certs):
    h = hashlib.sha256(repr((tuple(int(c) for c in centers), float(cost).hex(),
                             int(queries))).encode())
    for cert in certs:
        h.update(cert.dumps().encode())
    return h.hexdigest()


# sha256 of centers, cost.hex(), queries and every node certificate's dumps(),
# in level order, pins pipeline outputs bit for bit across refactors; the
# query count is also its own exact column, checked first, so a change in
# queries alone reads as a number. The queries (and so the digests) were
# re-recorded when Phase II began asking each pair once (32,732 / 36,784 /
# 55,034 / 8,504 / 11,264 / 3,178,496 before), with centers, cost and every
# certificate unchanged. Since the final nearest-center sweep reads Phase II's
# root block, each run asks n*k fewer (13,152 / 14,656 / 22,286 / 3,340 /
# 4,614 / 1,425,408 before): the query column was re-recorded, and the
# digest, taken with queries + n*k, still matches the recording. Since a
# one-point leaf asks nothing, random-matrix-120 (8 such leaves) asks 2,972
# (2,980 before); its digest was re-recorded, and the old one is what the
# new run gives with 2,980 queries.
GOLDEN_PIPELINE = [
    ("uniform-points", 300, 0, {}, 4, "median",
     "7cf3a4c05bf25df003c1f047cec21b63b16af6fba906a87b000a85bf4e855458", 11_952),
    ("uniform-points", 256, 1, {"norm": "l1", "unit_weights": False}, 6, "means",
     "95cb1bad861bf2c25e00123e072e1a055bfccf351760cf27245b47450657e3f4", 13_120),
    ("clustered-points", 400, 2, {"clusters": 8}, 5, "median",
     "e02d5b143c75927f4caeac7cb027552abf94c66c4555041fb8a6f2ee5448874b", 20_286),
    ("random-matrix", 120, 3, {}, 3, "median",
     "380e81c31f706b49bdfeded97e79f082cc8daac4bb7ae3b3231dd7dd7729aae9", 2_972),
    ("random-matrix", 90, 4, {"unit_weights": False}, 7, "means",
     "a0478452f43676d9edfa64d98691e1df26df0ea73cc0717a481ad26aafa16021", 3_984),
    ("clustered-points", 2048, 5, {"clusters": 64, "spread": 0.02}, 64, "means",
     "f632794853343137f523c2ce93989ab7accc3d044dd1e79e422b82d768889cf0", 1_294_336),
]


@pytest.mark.parametrize("gen,n,seed,params,k,objective,digest,queries", GOLDEN_PIPELINE)
def test_golden_pipeline_digests(gen, n, seed, params, k, objective, digest, queries):
    sp = dk.generators.make_instance(gen, n, seed=seed, **params)
    sol, met = dk.hierarchical_cluster(sp, k, objective)
    certs = [c for level in met.hierarchy.certificates for c in level if c is not None]
    assert met.queries == queries
    assert _digest(sol.centers, sol.cost, met.queries + n * k, certs) == digest


# registry outputs with k < n, the reverse-greedy certificate included
GOLDEN_REGISTRY = [
    ("guha", "uniform-points", 200, 6, {}, 3, "median",
     "2eac08746244554b3988fb150c55fa418c02b2c70e484b1ff9e97655d6f5679a", 9_030),
    ("local-search", "clustered-points", 150, 7, {"clusters": 5}, 4, "means",
     "5063e8599021802bb9f436b20f5119cbb2fd070732c7508ae0b250c2063c3d23", 110_700),
    ("reverse-greedy", "random-matrix", 60, 8, {}, 5, "median",
     "aa1b0d7ed4059121288baaa412e7a730469757a84762ec3ab54a4ff889f7f219", 3_600),
    ("reverse-greedy", "uniform-points", 80, 9, {}, 6, "means",
     "a651c4152c7aedeb38120edbb36c0196340fd5bba52049ffe0f29eabec62ca49", 6_400),
]


@pytest.mark.parametrize("algo,gen,n,seed,params,k,objective,digest,queries", GOLDEN_REGISTRY)
def test_golden_registry_digests(algo, gen, n, seed, params, k, objective, digest, queries):
    sp = dk.generators.make_instance(gen, n, seed=seed, **params)
    sol, rec, cert = run_algorithm(algo, sp, k, objective)
    certs = [] if cert is None else [cert]
    assert rec.queries == queries
    assert _digest(sol.centers, sol.cost, rec.queries, certs) == digest


class _Recording:
    """Oracle mixin that keeps every requested (rows, cols) rectangle."""

    def _pairwise(self, rows, cols):
        self.requests.append((rows.copy(), cols.copy()))
        return super()._pairwise(rows, cols)


class _RecordingPoints(_Recording, dk.PointsOracle):
    pass


class _RecordingMatrix(_Recording, dk.MatrixOracle):
    pass


def _recorded(oracle, weights=None):
    oracle.requests = []
    return dk.WeightedMetricSpace(oracle, np.ones(oracle.n) if weights is None else weights)


def _pipeline_requests(monkeypatch, sp, k, objective):
    """Run hierarchical_cluster and return the requests made up to
    extraction, those made inside sparsify, those extraction makes after its
    local search (or from its start when local search does not run), and the
    hierarchy."""
    import detkmed.hierarchy as hierarchy

    marks = {}

    def wrap(name):
        fn = getattr(hierarchy, name)

        def wrapper(*args, **kwargs):
            marks[name] = len(sp.oracle.requests)
            out = fn(*args, **kwargs)
            marks[name + "_end"] = len(sp.oracle.requests)
            return out
        monkeypatch.setattr(hierarchy, name, wrapper)

    wrap("sparsify")
    wrap("extract_k")
    wrap("local_search_kmedian")
    _, met = dk.hierarchical_cluster(sp, k, objective)
    reqs = sp.oracle.requests
    after_search = marks.get("local_search_kmedian_end", marks["extract_k"])
    return (reqs[:marks["extract_k"]], reqs[marks["sparsify"]:marks["sparsify_end"]],
            reqs[after_search:marks["extract_k_end"]], met.hierarchy)


def _request_case(case):
    """A recorded space, k and objective: uniform l2 points (300, or 1030 in
    ragged depth-10 levels), a weighted 90-point matrix, or 3 points whose
    hierarchy has empty parts."""
    rng = np.random.default_rng(31)
    if case.startswith("uniform"):
        n, k = (1030, 2) if case == "uniform-1030" else (300, 4)
        return _recorded(_RecordingPoints(rng.uniform(size=(n, 2)))), k, "median"
    if case == "weighted-matrix":
        m = dk.generators.random_matrix(90, seed=4).oracle.pairwise(np.arange(90), np.arange(90))
        return _recorded(_RecordingMatrix(m), rng.uniform(0.5, 2.0, 90)), 7, "means"
    return _recorded(_RecordingPoints(rng.uniform(size=(3, 2)))), 1, "median"


@pytest.mark.parametrize("case", ["uniform-l2", "uniform-1030", "weighted-matrix", "empty-parts"])
def test_phase2_and_sparsify_ask_each_pair_once(monkeypatch, case):
    sp, k, objective = _request_case(case)
    requests, in_sparsify, after_search, h = _pipeline_requests(monkeypatch, sp, k, objective)
    assert in_sparsify == []
    assert after_search == []  # the final sweep reads the root block
    # a one-point leaf's block is d(x, x) = 0: no 1 x 1 (x, x) rectangle
    assert not [r for r, c in sp.oracle.requests if r.size == c.size == 1 and r[0] == c[0]]
    leaves = [h.part(h.depth, j) for j in np.flatnonzero(np.diff(h.bounds[h.depth]))]
    if case == "empty-parts":
        assert (np.diff(h.bounds[h.depth]) == 0).any()
    seen = set()
    duplicates = 0
    for rows, cols in requests:
        leaf = any(np.array_equal(rows, part) and np.array_equal(cols, part) for part in leaves)
        pairs = {(min(x, y), max(x, y)) for x in rows.tolist() for y in cols.tolist() if x != y}
        if not leaf:
            duplicates += rows.size * cols.size - int((rows[:, None] == cols).sum()) - len(pairs)
        duplicates += len(pairs & seen)
        seen |= pairs
    assert duplicates == 0


REQUEST_SEQUENCE_PINS = [
    # (case, rectangles requested, sha256 of their (sizes, rows, cols) in order).
    # Re-recorded when one-point leaves stopped asking d(x, x): uniform-1030
    # (2,178 before) and empty-parts (9 before) are the old sequences without
    # their 1,018 and 3 one-by-one self rectangles.
    ("uniform-1030", 1160, "4dd0f021b463965bf7e39207a5d2e9a991c7693292be5af0ae77e12014d94ac1"),
    ("weighted-matrix", 40, "e5eef4b65679a432b472491a65e0c25f73edb4d18a22284031dc785d6d8a04c7"),
    ("empty-parts", 6, "7866342526cd47841d58c5fd2a9680da2ff484c30226f90ad277a8e24ea2734a"),
]


@pytest.mark.parametrize("case,count,digest", REQUEST_SEQUENCE_PINS)
def test_pipeline_request_sequence_is_pinned(case, count, digest):
    # every rectangle the pipeline requests, in order
    sp, k, objective = _request_case(case)
    dk.hierarchical_cluster(sp, k, objective)
    h = hashlib.sha256()
    for rows, cols in sp.oracle.requests:
        h.update(np.array([rows.size, cols.size], dtype=np.int64).tobytes())
        h.update(rows.astype(np.int64).tobytes())
        h.update(cols.astype(np.int64).tobytes())
    assert (len(sp.oracle.requests), h.hexdigest()) == (count, digest)


def test_sparsify_without_the_root_block_sweeps_itself():
    sp = dk.generators.uniform_points(40, seed=3)
    h = dk.build_partitions(sp, 2)
    v0, root_block = dk.phase2(sp, h, 2)
    before = sp.oracle.query_count
    swept = dk.sparsify(sp, v0)
    assert sp.oracle.query_count - before == sp.n * len(v0)
    served = dk.sparsify(sp, v0, root_block)
    assert sp.oracle.query_count - before == sp.n * len(v0)
    assert np.array_equal(swept.sigma, served.sigma)
    assert np.array_equal(swept.weights, served.weights)


@pytest.mark.parametrize("objective", ["median", "means"])
def test_extract_k_without_the_root_block_sweeps_itself(objective):
    sp = dk.generators.clustered_points(120, clusters=6, seed=5, unit_weights=False)
    k = 3
    h = dk.build_partitions(sp, k)
    v0, root_block = dk.phase2(sp, h, k, objective)
    sparsified = dk.sparsify(sp, v0, root_block)
    q0 = sp.oracle.query_count
    swept = dk.extract_k(sparsified, k, objective)
    q1 = sp.oracle.query_count
    served = dk.extract_k(sparsified, k, objective, root_block)
    assert (q1 - q0) - (sp.oracle.query_count - q1) == sp.n * k
    assert served.centers == swept.centers
    assert np.array_equal(served.assignment, swept.assignment)
    assert served.cost.hex() == swept.cost.hex()
    # the sweep alone, served from the block, asks nothing
    before = sp.oracle.query_count
    block = root_block[:, np.searchsorted(sparsified.points, sorted(served.centers))]
    again = dk.build_solution(sp, served.centers, objective, distances=block)
    assert sp.oracle.query_count == before
    assert again.cost.hex() == swept.cost.hex()


def test_query_constant_at_n_over_k_8():
    # the C07 envelope on an n/k = 8 cell, which C07's grid does not cover
    sp = dk.generators.clustered_points(512, clusters=64)
    _, met = dk.hierarchical_cluster(sp, 64, "means")
    assert met.queries <= QUERY_CONSTANT_FROZEN * 512 * 64 * (math.log2(512 / 64) + 2)


def test_pipeline_rejects_cost_overflow_before_any_query():
    # distances that overflow are rejected with the point set
    for coords in ([[1e308], [-1e308], [0.0]], [[1e200], [-1e200], [0.0]]):
        with pytest.raises(dk.MetricInputError, match="overflow"):
            dk.WeightedMetricSpace.from_points(coords)
    # finite distances whose costs overflow: 1e308 weights, and d = 1.2e154
    # under means, where 3 * d^2 overflows
    for coords, weights, objective in (([[0.0], [1.0]], [1e308, 1e308], "median"),
                                       ([[6e153], [-6e153], [0.0]], None, "means")):
        sp = dk.WeightedMetricSpace.from_points(coords, weights)
        with pytest.raises(dk.MetricInputError, match="overflow"):
            dk.hierarchical_cluster(sp, 1, objective)
        assert sp.oracle.query_count == 0


def test_phase2_lockstep_groups_keep_the_adversary_transcript():
    # n = 1030, k = 2: level 7 holds nodes of 8 and of 9 points over 8
    # candidates, so two shape groups step side by side there. The digests of
    # Phase II's adversary transcript and of its certificates were recorded
    # with the per-node greedy loop.
    from detkmed.adversary import AdversaryOracle, AdversarySession

    sess = AdversarySession(1030, 2, 1.0, "median")
    sp = dk.WeightedMetricSpace(AdversaryOracle(sess), np.ones(1030))
    h = dk.build_partitions(sp, 2)
    v0, _ = dk.phase2(sp, h, 2)
    assert {(c.universe_size, len(c.candidates)) for c in h.certificates[7]} == {(8, 8), (9, 8)}
    qx, qy, qa = sess.transcript()
    assert hashlib.sha256(qx.tobytes() + qy.tobytes() + qa.tobytes()).hexdigest() == (
        "b0122430dd6b6aa8a871d2910d48c324e95d9e64de819f481d746ae7229e80b9")
    certs = "".join(c.dumps() for level in h.certificates for c in level if c is not None)
    assert hashlib.sha256(certs.encode()).hexdigest() == (
        "43c3028e63cd10bfa8258bd4657cb4c680e1c8987c31f51b3f8452adc47784ac")
    assert v0 == [257, 514, 772, 1029]


def _phase2_outputs(case):
    if case == "adversary":  # the drive of the lockstep transcript test above
        from detkmed.adversary import AdversaryOracle, AdversarySession

        sp = dk.WeightedMetricSpace(AdversaryOracle(AdversarySession(1030, 2, 1.0, "median")),
                                    np.ones(1030))
        k, objective = 2, "median"
    else:
        sp = dk.generators.clustered_points(300, clusters=5, seed=3, unit_weights=False)
        k, objective = 4, "means"
    h = dk.build_partitions(sp, k)
    v0, block = dk.phase2(sp, h, k, objective)
    certs = [c.dumps() for level in h.certificates for c in level if c is not None]
    return v0, h.centers, certs, block


@pytest.mark.parametrize("case", ["adversary", "clustered"])
def test_phase2_kept_columns_do_not_depend_on_the_chunk(monkeypatch, case):
    # at 20 index elements a chunk holds 2 to 20 rows, so chunks split runs
    import detkmed.hierarchy as hierarchy

    v0, centers, certs, block = _phase2_outputs(case)
    monkeypatch.setattr(hierarchy, "_COST_BLOCK", 20)
    got = _phase2_outputs(case)
    assert (got[0], got[1], got[2]) == (v0, centers, certs)
    assert got[3].shape == block.shape and got[3].tobytes() == block.tobytes()


# Phase II's working set is one n x 4k block a level. tracemalloc peak of one
# pipeline-large-k-shaped call (n = 2048, k = 64, means) in such blocks, with
# numpy 2.4.6: 2.71 while each level kept its children's full blocks alive
# and gathered their surviving columns through an index as large as the
# result, 2.01 once each level hands only its kept columns up.
def test_pipeline_peak_memory_stays_near_one_level_block():
    sp = dk.generators.clustered_points(2048, clusters=64, spread=0.02)
    dk.hierarchical_cluster(sp, 64, "means")  # as when the bound was measured: not the first call
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dk.hierarchical_cluster(sp, 64, "means")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 2.25 * 2048 * (4 * 64) * 8
