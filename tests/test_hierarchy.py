import hashlib
import math

import numpy as np
import pytest

import detkmed as dk
from detkmed.harness import run_algorithm
from detkmed.greedy import means_eps
from detkmed.hierarchy import depth_for, harmonic
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
    assert [p.size for p in h.parts[3]] == [1] * 8
    assert h.structure_violations() == []
    sp5 = line_space(range(5))
    h5 = dk.build_partitions(sp5, 1)
    assert [p.size for p in h5.parts[1]] == [3, 2]
    assert list(h5.parts[1][0]) == [0, 1, 2]


def test_partition_size_bound_large():
    sp = dk.WeightedMetricSpace.from_points(np.zeros((1000, 1)))
    h = dk.build_partitions(sp, 10)
    assert h.depth == 7
    assert max(p.size for p in h.parts[7]) <= 9
    assert h.structure_violations() == []


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
    assert full.total_weight() == pytest.approx(float(sp.weights.sum()), rel=1e-9)
    single = dk.sparsify(sp, [3])
    assert single.weights[0] == pytest.approx(float(sp.weights.sum()), rel=1e-9)
    for other in mid_spaces[1:5]:
        s = dk.sparsify(other, [0, other.n // 2, other.n - 1])
        assert s.total_weight() == pytest.approx(float(other.weights.sum()), rel=1e-9)
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
# certificate unchanged.
GOLDEN_PIPELINE = [
    ("uniform-points", 300, 0, {}, 4, "median",
     "7cf3a4c05bf25df003c1f047cec21b63b16af6fba906a87b000a85bf4e855458", 13_152),
    ("uniform-points", 256, 1, {"norm": "l1", "unit_weights": False}, 6, "means",
     "95cb1bad861bf2c25e00123e072e1a055bfccf351760cf27245b47450657e3f4", 14_656),
    ("clustered-points", 400, 2, {"clusters": 8}, 5, "median",
     "e02d5b143c75927f4caeac7cb027552abf94c66c4555041fb8a6f2ee5448874b", 22_286),
    ("random-matrix", 120, 3, {}, 3, "median",
     "af36b4dcfd82562eac9b62cc6a19c1a6384090ebc23bd358add21ecbee04d2b4", 3_340),
    ("random-matrix", 90, 4, {"unit_weights": False}, 7, "means",
     "a0478452f43676d9edfa64d98691e1df26df0ea73cc0717a481ad26aafa16021", 4_614),
    ("clustered-points", 2048, 5, {"clusters": 64, "spread": 0.02}, 64, "means",
     "f632794853343137f523c2ce93989ab7accc3d044dd1e79e422b82d768889cf0", 1_425_408),
]


@pytest.mark.parametrize("gen,n,seed,params,k,objective,digest,queries", GOLDEN_PIPELINE)
def test_golden_pipeline_digests(gen, n, seed, params, k, objective, digest, queries):
    sp = dk.generators.make_instance(gen, n, seed=seed, **params)
    sol, met = dk.hierarchical_cluster(sp, k, objective)
    certs = [c for level in met.hierarchy.certificates for c in level if c is not None]
    assert met.queries == queries
    assert _digest(sol.centers, sol.cost, met.queries, certs) == digest


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
    extraction, those made inside sparsify, and the hierarchy."""
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
    _, met = dk.hierarchical_cluster(sp, k, objective)
    reqs = sp.oracle.requests
    return reqs[:marks["extract_k"]], reqs[marks["sparsify"]:marks["sparsify_end"]], met.hierarchy


@pytest.mark.parametrize("case", ["uniform-l2", "weighted-matrix", "empty-parts"])
def test_phase2_and_sparsify_ask_each_pair_once(monkeypatch, case):
    rng = np.random.default_rng(31)
    if case == "uniform-l2":
        sp, k, objective = _recorded(_RecordingPoints(rng.uniform(size=(300, 2)))), 4, "median"
    elif case == "weighted-matrix":
        m = dk.generators.random_matrix(90, seed=4).oracle.pairwise(np.arange(90), np.arange(90))
        sp, k, objective = _recorded(_RecordingMatrix(m), rng.uniform(0.5, 2.0, 90)), 7, "means"
    else:
        sp, k, objective = _recorded(_RecordingPoints(rng.uniform(size=(3, 2)))), 1, "median"
    requests, in_sparsify, h = _pipeline_requests(monkeypatch, sp, k, objective)
    assert in_sparsify == []
    leaves = [part for part in h.parts[h.depth] if part.size]
    if case == "empty-parts":
        assert any(part.size == 0 for part in h.parts[h.depth])
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
