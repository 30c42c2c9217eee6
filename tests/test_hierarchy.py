import numpy as np
import pytest

import detkmed as dk
from detkmed.hierarchy import depth_for, harmonic, means_eps
from detkmed.metric import leq
from tests.conftest import line_space


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
    v0 = dk.phase2(sp, h, 3)
    assert sorted(v0) == list(range(6))
    assert dk.cost(sp, v0) == 0.0


def test_phase2_zero_metric():
    sp = dk.WeightedMetricSpace.from_matrix(np.zeros((12, 12)))
    h = dk.build_partitions(sp, 2)
    v0 = dk.phase2(sp, h, 2)
    assert dk.cost(sp, v0) == 0.0
    assert len(v0) <= 4


def test_phase2_v0_size_and_node_sizes(mid_spaces):
    for sp in mid_spaces[:6]:
        k = 1 + sp.n % 3
        h = dk.build_partitions(sp, k)
        v0 = dk.phase2(sp, h, k)
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
