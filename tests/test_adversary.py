import copy
import hashlib
import itertools
import json
import math

import numpy as np
import networkx as nx
import pytest

import detkmed as dk
from detkmed.adversary import (AdversarySession, AdversaryOracle, FinalMetric,
                               audit_session, run_against)
from detkmed.cli import main
from detkmed.harness import adversary_algorithm, adversary_report_dict, run_algorithm
from detkmed.metric import Objective


def build_hat_graph(sess):
    """Materialized auxiliary graph: testing oracle for small sessions."""
    G = nx.Graph()
    G.add_nodes_from(range(sess.n + 1))
    for u, v, w in sess.edges():
        G.add_edge(u, v, weight=w)
    opens = [v for v in range(sess.n) if sess.status[v]]
    for i in range(len(opens)):
        for j in range(i + 1, len(opens)):
            u, v = opens[i], opens[j]
            if not G.has_edge(u, v) or G[u][v]["weight"] > 1:
                G.add_edge(u, v, weight=1.0)
    return G


def test_first_query_between_open_nodes_is_one():
    sess = AdversarySession(64, 1, 1.0)
    assert sess.answer_query(3, 9) == 1.0


def test_repeat_query_identical():
    sess = AdversarySession(64, 1, 1.0)
    first = sess.answer_query(5, 6)
    assert sess.answer_query(5, 6) == first
    assert sess.answer_query(6, 5) == first


def test_closed_node_distance_two():
    n = 128
    sess = AdversarySession(n, 1, 1.0)
    hub = 0
    partner = 1
    while sess.status[hub]:
        sess.answer_query(hub, partner)
        partner += 1
    assert sess.degree(hub) >= sess.M
    # fresh pair against the closed hub: shortest route hops through one of
    # the hub's open unit neighbors
    got = sess.answer_query(hub, partner)
    expected = nx.dijkstra_path_length(build_hat_graph(sess), hub, partner)
    assert got == expected == 2.0


def test_dijkstra_fallback_past_the_enumeration_threshold():
    # k = 1, delta = 1 at n = 1024: M = 100 and L ~ 1.505, so the gate route
    # 2L exceeds 3, the threshold below which the enumerated candidates are
    # exhaustive. Point 0 closes against 1..99 and each of those closes
    # against points from 200 up, so 0 keeps no open unit neighbor to anchor
    # a virtual edge at, and only the capped Dijkstra finds the path
    # 0 -> 1 -> 200 -> (virtual) -> 150 of length 3.
    n = 1024
    sess = AdversarySession(n, 1, 1.0)
    assert sess.M == 100 and 2 * sess.L > 3.0
    for v in range(1, 100):
        sess.answer_query(0, v)
    assert not sess.status[0]
    fresh = 0
    for v in range(1, 100):
        while sess.status[v]:
            sess.answer_query(v, 200 + fresh % (n - 200))
            fresh += 1
    expected = nx.dijkstra_path_length(build_hat_graph(sess), 0, 150)
    searches = []
    dijkstra = sess._dijkstra_hat
    sess._dijkstra_hat = lambda *args: searches.append(args) or dijkstra(*args)
    assert sess.answer_query(0, 150) == expected == 3.0
    assert len(searches) == 1
    assert sess.edge_weight(200, 150) == 1.0


def test_statuses_never_reopen_and_m_threshold():
    n = 128
    sess = AdversarySession(n, 1, 1.0)
    was_closed = set()
    rng = np.random.default_rng(0)
    for _ in range(2500):
        x, y = rng.integers(0, n, 2)
        if x == y:
            continue
        sess.answer_query(int(x), int(y))
        now_closed = {v for v in range(n) if not sess.status[v]}
        assert was_closed <= now_closed
        was_closed = now_closed
        for v in range(n):
            if sess.status[v]:
                assert sess.degree(v) < sess.M + 2


def _check_against_materialized_oracle(sess):
    # Every pair once, in a seeded order. The hat graph is rebuilt only after
    # a closure or an answer with a closed endpoint: an open-open answer adds
    # a unit edge the open clique already holds.
    rng = np.random.default_rng(151)
    pairs = list(itertools.combinations(range(sess.n), 2))
    rng.shuffle(pairs)
    G = build_hat_graph(sess)
    closed_answers = 0
    for x, y in pairs:
        existing = sess.edge_weight(x, y)
        expected = existing if existing is not None else nx.dijkstra_path_length(G, x, y)
        closed_before = sess.closed_points()
        closed_endpoint = not (sess.status[x] and sess.status[y])
        assert sess.answer_query(x, y) == pytest.approx(expected, rel=1e-12)
        closed_answers += closed_endpoint
        if closed_endpoint or sess.closed_points() != closed_before:
            G = build_hat_graph(sess)
    return closed_answers


def test_answers_match_materialized_oracle_randomized():
    assert _check_against_materialized_oracle(AdversarySession(72, 1, 1.0)) >= 400


def test_answers_match_materialized_oracle_unit_gate_edges():
    # delta = n / (10 log2 n) puts M = n, so L = 1: the gate edges are unit
    # edges from the start. A point then closes only once its degree reaches
    # n, i.e. after its last pair is answered, so no answer meets a closed
    # endpoint and every answer is a Case-2 unit edge.
    sess = AdversarySession(72, 1, 1.1669509756304806)
    assert sess.L == 1.0
    assert _check_against_materialized_oracle(sess) == 0


def test_repeated_virtual_edge_counts_toward_degree_only():
    # two closed hubs whose unit neighbors are already joined: the virtual
    # edge their answer materializes exists, so the edge count grows by the
    # answered pair alone while both anchors' degrees, which close them at M,
    # grow as for a fresh edge
    n = 1024
    sess = AdversarySession(n, 1, 1.0)
    assert sess.L > 1.5  # the gate route 2L loses to three unit edges
    block0, block1 = range(10, 18), range(18, 26)
    for a in block0:
        for b in block1:
            sess.answer_query(a, b)
    fresh = 100
    for hub, block in ((0, block0), (1, block1)):
        for b in block:
            sess.answer_query(hub, b)
        while sess.status[hub]:
            sess.answer_query(hub, fresh)
            fresh += 1
    edges = sess.edge_count()
    degrees = [sess.degree(v) for v in range(26)]
    assert sess.answer_query(0, 1) == 3.0
    assert sess.edge_count() == edges + 1
    grown = [v for v in range(2, 26) if sess.degree(v) > degrees[v]]
    assert len(grown) == 2 and sess.edge_weight(*grown) == 1.0
    assert all(sess.degree(v) == degrees[v] + 1 for v in grown)


def test_at_most_two_edges_per_answer():
    n = 100
    sess = AdversarySession(n, 1, 1.0)
    rng = np.random.default_rng(3)
    edges_before = sess.edge_count()
    answered = 0
    for _ in range(3000):
        x, y = rng.integers(0, n, 2)
        if x == y:
            continue
        sess.answer_query(int(x), int(y))
        answered += 1
        assert sess.edge_count() - edges_before <= 2 * answered


def test_finalize_consistency_and_metric_axioms():
    n = 96
    sess = AdversarySession(n, 2, 1.0)
    rng = np.random.default_rng(9)
    for _ in range(3500):
        x, y = rng.integers(0, n, 2)
        if x != y:
            sess.answer_query(int(x), int(y))
    metric = sess.finalize([4, 80])
    qx, qy, qa = sess.transcript()
    D = metric.matrix()
    assert np.allclose(D[qx, qy], qa, rtol=1e-12, atol=0)
    # shortest-path metric: symmetric with zero diagonal and no triangle gaps
    space = dk.WeightedMetricSpace.from_matrix(D)
    assert dk.verify_metric(space).ok
    # every pair sits within the double gate route
    assert D.max() <= 2 * sess.L + 1e-12
    G = build_hat_graph(sess)
    sp = dict(nx.all_pairs_dijkstra_path_length(G))
    for i in range(n):
        for j in range(n):
            if i != j:
                assert D[i, j] == pytest.approx(sp[i][j], rel=1e-12)


def test_lazy_distance_agrees_with_dense():
    n = 80
    sess = AdversarySession(n, 1, 1.0)
    rng = np.random.default_rng(13)
    for _ in range(2600):
        x, y = rng.integers(0, n, 2)
        if x != y:
            sess.answer_query(int(x), int(y))
    metric = sess.finalize([0])
    D = metric.matrix()
    for _ in range(300):
        i, j = (int(v) for v in rng.integers(0, n, 2))
        assert metric.distance(i, j) == pytest.approx(D[i, j], rel=1e-12)


@pytest.fixture(scope="module")
def finalized_hierarchical_1024():
    # L ~ 1.31, so lb = 2 and the gate route 2L sits above it
    sess = AdversarySession(1024, 2, 1.0)
    space = dk.WeightedMetricSpace(AdversaryOracle(sess), np.ones(1024))
    sess.finalize(adversary_algorithm("hierarchical")(space, 2, Objective.MEDIAN).centers)
    unmutated = copy.deepcopy(sess)
    assert audit_session(unmutated, FinalMetric(unmutated)).passed
    return sess


def _set_weight(sess, u, v, w):
    sess._adj[u][v] = sess._adj[v][u] = w


def _mutate_shortcut(sess):
    # a 0.9 + 0.9 path through a point joined to neither end of an edge at
    # lb; the final metric still reports lb, since the two-hop search
    # returns without scanning common neighbors in this regime
    adj = sess._adj
    u, v, _ = next(e for e in sess.edges()
                   if e[2] == 2.0 and len(adj[e[0]]) + len(adj[e[1]]) < sess.n)
    m = next(m for m in range(sess.n) if m not in (u, v) and m not in adj[u] and m not in adj[v])
    _set_weight(sess, u, m, 0.9)
    _set_weight(sess, m, v, 0.9)
    assert FinalMetric(sess).distance(u, v) == 2.0


def _mutate_lowered(sess):
    u, v, _ = next(e for e in sess.edges() if e[2] == 2.0)
    _set_weight(sess, u, v, 1.5)


def _mutate_raised(sess):
    # every answer of 2 has a two-unit path, which the re-derivation finds
    u, v, _ = next(e for e in sess.edges() if e[2] == 2.0)
    _set_weight(sess, u, v, 2.5)


def _mutate_reopened(sess):
    u, v, _ = next(e for e in sess.edges() if e[1] != sess.gate and e[2] > 1.0)
    sess.status[u] = sess.status[v] = 1


def _mutate_gate(sess):
    _set_weight(sess, 7, sess.gate, sess.L + 0.5)


@pytest.mark.parametrize("mutate,message", [
    (_mutate_shortcut, "weight 0.9 is neither 1 nor at least 2.0"),
    (_mutate_lowered, "weight 1.5 is neither 1 nor at least 2.0"),
    (_mutate_raised, "answered 2.5 but final distance 2.0"),
    (_mutate_reopened, "joins two open points"),
    (_mutate_gate, "gate edge (7,1024) has weight"),
])
def test_consistency_audit_catches_mutants(finalized_hierarchical_1024, mutate, message):
    # mutated after finalize, whose own answers would close a reopened
    # point again
    sess = copy.deepcopy(finalized_hierarchical_1024)
    mutate(sess)
    violations = audit_session(sess, FinalMetric(sess)).violations
    assert any(message in v for v in violations), violations


def test_finalize_pads_with_smallest_unused():
    sess = AdversarySession(32, 3, 1.0)
    sess.answer_query(1, 2)
    sess.finalize([2])
    assert sess.final_centers == [2, 0, 1]


def test_budget_enforcement():
    sess = AdversarySession(16, 1, 1.0, budget=5)
    for i in range(5):
        sess.answer_query(0, i + 1)
    with pytest.raises(dk.QueryBudgetExceededError, match="query budget exceeded"):
        sess.answer_query(0, 6)


def test_budget_error_for_reverse_greedy():
    with pytest.raises(dk.QueryBudgetExceededError):
        run_against(adversary_algorithm("reverse-greedy"), 64, 2, 1.0,
                    enforce_budget=True)


def test_rejects_pathological_regimes():
    with pytest.raises(dk.MetricInputError):
        AdversarySession(4, 2, 1.0)  # M = 40 > 16 = n^2
    for bad_k in (1.5, True, 0):
        with pytest.raises(dk.MetricInputError):
            AdversarySession(64, bad_k, 1.0)
    with pytest.raises(dk.MetricInputError):
        AdversarySession(64, 1, 1.0).answer_query(3, 3)


def test_audit_requires_finalized_session():
    from detkmed.adversary import audit_session

    sess = AdversarySession(64, 1, 1.0)
    sess.answer_query(0, 1)
    with pytest.raises(RuntimeError, match="finalized"):
        audit_session(sess, None)
    metric = sess.finalize([0])
    with pytest.raises(RuntimeError, match="finalized"):
        sess.answer_query(2, 3)
    assert audit_session(sess, metric).passed


def test_trivial_regime_reported():
    # M > n means floor(log_M n) = 0; only the structural audits fire
    result = run_against(adversary_algorithm("local-search"), 48, 1, 1.0)
    assert result.audit.trivial_regime
    assert result.audit.r == 0
    assert result.audit.passed, result.audit.violations


def test_audit_session_counts_and_gate():
    n = 128
    result = run_against(adversary_algorithm("hierarchical"), n, 1, 1.0)
    audit = result.audit
    sess = result.session
    assert audit.passed, audit.violations
    assert audit.edges_total <= 2 * (audit.algo_queries + audit.artificial_queries) + n
    assert all(w == sess.L for _, v, w in sess.edges() if v == sess.gate)
    assert not sess.status[sess.gate]
    assert audit.consistency_pairs == audit.algo_queries + audit.artificial_queries


@pytest.mark.parametrize("algo,n,k,delta,queries", [
    ("hierarchical", 512, 2, 40.0, 14_368),
    ("reverse-greedy", 64, 2, 32.0, 4_032),
])
def test_audit_session_within_budget(algo, n, k, delta, queries):
    # Runs inside the n*k*delta allowance, so the witness and closed-node
    # lemmas are checked under their premise and the paper's edge bound
    # 2*nominal + 2nk + n runs. Both runs have r = 0: a within-budget run with
    # r >= 1 needs M <= n and delta >~ 1.4 * (log2(n/k) + 2), out of reach at
    # test sizes.
    audit = run_against(adversary_algorithm(algo), n, k, delta).audit
    assert audit.algo_queries == queries <= audit.nominal_budget == n * k * delta
    assert audit.within_budget and audit.r == 0
    assert audit.passed, audit.violations
    assert audit.edges_total <= 2 * audit.nominal_budget + 2 * n * k + n


def test_run_against_deterministic():
    r1 = run_against(adversary_algorithm("hierarchical"), 256, 2, 1.0)
    r2 = run_against(adversary_algorithm("hierarchical"), 256, 2, 1.0)
    assert r1.solution.centers == r2.solution.centers
    for a, b in zip(r1.session.transcript(), r2.session.transcript()):
        assert np.array_equal(a, b)
    assert r1.audit.solution_cost == r2.audit.solution_cost
    assert r1.audit.witness_cost == r2.audit.witness_cost


def test_oracle_counts_and_diagonal():
    sess = AdversarySession(32, 1, 1.0)
    oracle = AdversaryOracle(sess)
    before = oracle.query_count
    assert oracle.distance(4, 4) == 0.0
    assert oracle.query_count == before + 1
    assert sess.algo_queries == 0
    oracle.distance(4, 5)
    assert sess.algo_queries == 1


def test_run_algorithm_on_an_adversary_space():
    # the pre-query overflow check reads the adversary's query-free bound 2L
    sess = AdversarySession(64, 2, 1.0)
    space = dk.WeightedMetricSpace(AdversaryOracle(sess), np.ones(64))
    _, record, _ = run_algorithm("local-search", space, 2)
    assert record.queries == 4224
    assert sess.transcript()[2].max() <= space.oracle.diameter_bound() == 2 * sess.L


def test_hierarchical_run_full_audit_small():
    result = run_against(adversary_algorithm("hierarchical"), 256, 2, 1.0)
    audit = result.audit
    assert audit.passed, audit.violations
    assert audit.r == max(0, math.floor(math.log(256, audit.M)))
    space = dk.WeightedMetricSpace.from_matrix(result.metric.matrix())
    assert dk.verify_metric(space).ok
    # aspect ratio capped by the gate construction
    assert dk.aspect_ratio(space) <= 2 * result.session.L + 1e-9


def test_means_mode_uses_squared_threshold():
    sess = AdversarySession(4096, 2, 1.0, Objective.MEANS)
    assert sess.M == pytest.approx(10 * 2 * 1 * 144.0)
    result = run_against(adversary_algorithm("local-search"), 128, 1, 1.0, "means")
    assert result.audit.objective is Objective.MEANS
    assert result.audit.passed, result.audit.violations


# Recorded before the engine moved from one global edge dict to per-vertex
# maps: sha256 of the qx, qy, qa transcript bytes, edge_count(),
# closed_points() and solution_cost.hex(). The three hierarchical cases cover
# L ~ 0.91, where M > n and so no point ever closes or needs a search, and
# two of the two-hop regimes (L ~ 1.31: gate route within one unit edge of
# the lower bound; L ~ 1.52: scan). The guha
# row was re-recorded when guha stopped pricing its composed mapping: 297
# repeat answers fewer (10,827 -> 10,530), edges, closures and cost unchanged.
# The hierarchical rows were re-recorded when Phase II began asking each pair
# once (algorithm queries 74,252 -> 32,522 at n = 1030 and 360,468 -> 163,872
# at n = 4096), edges, closures and cost unchanged. The last column, added
# later, is the sha256 of the whole JSON report (audit verdicts included).
GOLDEN = [
    ("hierarchical", 1030, 2, "means",
     "76d8df6674da648fc9656ccf90e7f7653bcb896e7057c36d5b86d6aae9631229",
     31470, 0, "0x1.0100000000000p+10",
     "5123d15e41f597821623051e36552bd2dab20af43a7c312212e4e493e3e367f4"),
    ("hierarchical", 1030, 2, "median",
     "c7a10b220d8df8e94eceec4c5ba42183cea84647c87edc4d9b6caef45069842d",
     33913, 32, "0x1.a0791b9d53129p+10",
     "cfa3a8056175ec6df81cc62bb1bb403a3100c905175720302bd2ef7f8e33995d"),
    ("hierarchical", 4096, 2, "median",
     "57861f5b2dbd45deeeaea41aae78126ab4146feb909e767b996e4a8cc2df4151",
     185936, 128, "0x1.e8e0000000000p+12",
     "ba4d947ce030531e1c7a75c026b70d3513394ff15528181ac17b45ee65f817db"),
    ("guha", 300, 3, "means",
     "ebd759b41fc5db4cf7a783dcbe7bb4574e6270ac7ff430efdeb1ba556bcc651b",
     2796, 0, "0x1.2900000000000p+8",
     "c6bade7259a63f52d55a700c21f671427bccb1c4740105231687d49aa853b23b"),
    ("reverse-greedy", 300, 3, "means",
     "2320793afad4260973c1d6f669ad924f030b9f33a176d12b07b7432d27bda5f7",
     45150, 0, "0x1.2900000000000p+8",
     "b351cb25daa708c8df706e5969089b042c86cbfce0114e7a110581a4aab49e84"),
]


def _report_digest(result) -> str:
    report = json.dumps(adversary_report_dict(result), sort_keys=True)
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.parametrize("algo,n,k,objective,digest,edges,closed,cost,report", GOLDEN)
def test_golden_transcripts(algo, n, k, objective, digest, edges, closed, cost, report):
    result = run_against(adversary_algorithm(algo), n, k, 1.0, objective)
    qx, qy, qa = result.session.transcript()
    assert hashlib.sha256(qx.tobytes() + qy.tobytes() + qa.tobytes()).hexdigest() == digest
    assert result.session.edge_count() == edges
    assert result.session.closed_points() == closed
    assert result.audit.solution_cost.hex() == cost
    assert result.audit.passed, result.audit.violations
    assert _report_digest(result) == report


# Recorded while the session still tallied each vertex's open unit
# neighbors. Local search through the adversary is the one tier-1 run that
# finds no open unit neighbor to anchor a virtual edge at (2,256 of its 2,303
# searches at n = 200; no hierarchical run ever does), so it pins that miss.
# The run spends 79,600 queries against an allowance of 400, so its audit's
# only verdict is the unmet premise.
def test_golden_local_search_transcript():
    result = run_against(adversary_algorithm("local-search"), 200, 2, 1.0, "median")
    qx, qy, qa = result.session.transcript()
    assert hashlib.sha256(qx.tobytes() + qy.tobytes() + qa.tobytes()).hexdigest() == (
        "bc863fc89daf72ac2fe3779b61126828c712217cbe5c7e570f2e5f7b72404051")
    assert result.session.edge_count() == 20100
    assert result.session.closed_points() == 200
    assert result.audit.solution_cost.hex() == "0x1.e800000000000p+7"
    assert result.audit.algo_queries == 79600
    assert len(result.audit.violations) == 1
    assert result.audit.violations[0].startswith(
        "premise not met: 79600 queries exceed the n·k·δ allowance 400.0")
    assert _report_digest(result) == (
        "36223d037672d37c311b8fe0c773ac1810f9880f2fa82a4761f4c86f92ac563c")


def test_two_hop_matches_brute_force_in_scan_regime():
    n = 1024
    sess = AdversarySession(n, 1, 1.0)
    assert 1.5 < sess.L < 1.51  # 2L exceeds 1 + 2, so the two-hop scans
    rng = np.random.default_rng(17)
    # 40 hubs queried against random points close; queries among the first
    # 200 points then add heavy edges at the closed hubs
    for _ in range(6000):
        x, y = int(rng.integers(0, 40)), int(rng.integers(0, n))
        if x != y:
            sess.answer_query(x, y)
    for _ in range(3000):
        x, y = (int(v) for v in rng.integers(0, 200, 2))
        if x != y:
            sess.answer_query(x, y)
    assert sess.closed_points() == 40
    adj = [{} for _ in range(n + 1)]
    for u, v, w in sess.edges():
        adj[u][v] = adj[v][u] = w
    seen = set()
    for _ in range(3000):
        x, y = (int(v) for v in rng.integers(0, 200, 2))
        if x == y:
            continue
        brute = min(w + adj[y][m] for m, w in adj[x].items() if m in adj[y])
        assert sess._two_hop(x, y) == brute
        seen.add(brute)
    # unit-unit, unit-heavy and gate routes all occur among the samples
    assert {2.0, 3.0, 2 * sess.L} <= seen


def test_cli_guha_runs_at_its_default_delta(tmp_path):
    # --delta is the adversary's budget factor only; guha keeps delta = 2
    report = tmp_path / "report.json"
    assert main(["adversary", "--algo", "guha", "--n", "300", "--k", "3",
                 "--objective", "means", "--emit-report", str(report)]) == 0
    queries = json.loads(report.read_text())["queries"]
    qx, qy, qa = (np.array(col, dtype=dt) for col, dt in
                  zip(zip(*queries), (np.int64, np.int64, np.float64)))
    digest = next(row[4] for row in GOLDEN if row[0] == "guha")
    assert hashlib.sha256(qx.tobytes() + qy.tobytes() + qa.tobytes()).hexdigest() == digest


def test_report_replay_roundtrip_cli(tmp_path):
    report = tmp_path / "report.json"
    assert main(["adversary", "--n", "128", "--k", "2", "--objective", "means",
                 "--emit-report", str(report)]) == 0
    assert json.loads(report.read_text())["n"] == 128
    assert main(["verify", "replay", "--report", str(report)]) == 0
