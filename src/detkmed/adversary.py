"""Adaptive adversary for stress-testing deterministic clustering algorithms.

The adversary answers distance queries while building a weighted graph whose
shortest-path metric stays consistent with every answer it has given. Nodes
are one vertex per point plus a gate vertex wired to everyone at weight
log_M(n); a vertex closes permanently once its degree reaches M, which
`_push_edge` checks for both endpoints of every edge it adds. Queries
between two open vertices cost 1; anything touching a closed vertex is
answered with the exact shortest path through the graph augmented by implicit
weight-1 edges between open pairs (of which a shortest path uses at most one,
so that one edge is materialized when chosen).

The graph is held as one dict per vertex mapping neighbor to weight, plus a
push counter per vertex (the degree that closes it, repeated virtual edges
included) and, per vertex, the list of its unit-weight point neighbors in push
order, which fixes the round-robin order of virtual-edge anchors. Gate edges
stay out of those lists even at log_M(n) = 1, where M = n: a point then closes
only after all its n - 1 pairs are answered, so no answer needs a virtual edge
or a Dijkstra search.

Shortest paths are computed exactly without materializing the open clique:
the best two-edge path, a best candidate using one virtual edge anchored at
unit-weight open neighbors, and an enumeration threshold below which those
candidates are provably exhaustive; only candidates above the threshold fall
back to a capped Dijkstra that relaxes the open clique once at the first open
vertex it settles. The two-edge minimum needs no scan in two regimes: 2 when
the endpoints share a unit neighbor, and the gate route 2L while it costs at
most one unit edge plus the lightest other edge. Only past that are common
neighbors enumerated, by intersecting the two vertex maps.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .generators import metric_closure
from .metric import (
    ABS_TOL,
    DistanceOracle,
    MetricInputError,
    Objective,
    Solution,
    WeightedMetricSpace,
    as_objective,
    check_k,
    close,
    leq,
)


class QueryBudgetExceededError(RuntimeError):
    """The algorithm under test spent more than its n*k*delta query allowance."""


class AdversarySession:
    """Stateful adversary for one algorithm run. Strictly single-threaded;
    the construction is order-dependent by design."""

    def __init__(self, n: int, k: int, delta: float,
                 objective: Objective | str = Objective.MEDIAN,
                 budget: int | None = None):
        obj = as_objective(objective)
        if obj is Objective.NORMALIZED_MEANS:
            raise MetricInputError("adversary supports median and means objectives")
        if n < 2:
            raise MetricInputError("adversary needs at least two points")
        if delta < 1:
            raise MetricInputError("delta must be at least 1")
        self.n = n
        self.k = check_k(k, n)
        self.delta = delta
        self.objective = obj
        logn = math.log2(n)
        self.M = 10.0 * k * delta * (logn * logn if obj is Objective.MEANS else logn)
        if self.M > n * n:
            # with M > n^2 the gate route undercuts the weight-1 answers and
            # no consistent metric matches the Case-2 replies
            raise MetricInputError("M exceeds n^2; no consistent metric in this regime")
        self.L = math.log(n) / math.log(self.M)
        self.gate = n
        self.budget = budget
        self.finalized = False
        self.final_centers: list[int] | None = None

        size = n + 1
        L = self.L
        # gate star, built in bulk. Gate edges stay out of the unit-neighbor
        # lists even at L == 1.0: there M equals n, so a point closes only
        # once all its n - 1 pairs are answered, no query meets a closed
        # endpoint without a direct edge, and no virtual edge is ever sought.
        self._adj: list[dict[int, float]] = [{self.gate: L} for _ in range(n)]
        self._adj.append(dict.fromkeys(range(n), L))
        self._deg = array("i", [1]) * size
        self._deg[self.gate] = n
        self.status = bytearray([1]) * size
        self.status[self.gate] = 0
        self._unit_cursor = array("i", bytes(4 * size))
        self._unit_nbrs = [array("i") for _ in range(size)]
        self._qx = array("i")
        self._qy = array("i")
        self._qa = array("d")
        self.algo_queries = 0
        self.artificial_queries = 0
        # per final center: answers to every point, filled by finalize()
        self._center_rows: dict[int, np.ndarray] = {}

    # -- graph bookkeeping -------------------------------------------------

    def _push_edge(self, u: int, v: int, w: float) -> None:
        # a repeated push is always a weight-1 virtual edge between two open
        # vertices: the maps keep one entry, the degree counts both pushes.
        # An endpoint whose degree reaches M closes for good; nothing reads
        # the status between the pushes of one answer.
        self._adj[u][v] = w
        self._adj[v][u] = w
        deg, M = self._deg, self.M
        deg[u] += 1
        deg[v] += 1
        if deg[u] >= M:
            self.status[u] = 0
        if deg[v] >= M:
            self.status[v] = 0
        if w == 1.0:
            self._unit_nbrs[u].append(v)
            self._unit_nbrs[v].append(u)

    def degree(self, v: int) -> int:
        """Edge pushes at v, repeated virtual edges included; v closes once
        this reaches M."""
        return self._deg[v]

    def edge_weight(self, u: int, v: int) -> float | None:
        """Weight of the materialized edge {u, v}, or None."""
        return self._adj[u].get(v)

    def edges(self):
        """Every materialized edge once, as (u, v, w) with u < v."""
        for u, nbrs in enumerate(self._adj):
            for v, w in nbrs.items():
                if u < v:
                    yield u, v, w

    def _find_open_unit_nbr(self, v: int) -> int:
        """Some open vertex joined to v by a weight-1 edge, or -1.

        Round-robins over v's unit neighbors so that, when this neighbor is
        materialized into a virtual edge over and over (a closed hub gets
        queried against many fresh points), the added degree spreads out
        instead of closing one companion after another. A miss leaves the
        cursor where it was; the cursor is an index into a list that only
        grows, so it stays in range.
        """
        lst = self._unit_nbrs[v]
        m = len(lst)
        i = self._unit_cursor[v]
        status = self.status
        for _ in range(m):
            u = lst[i]
            i += 1
            if i == m:
                i = 0
            if status[u]:
                self._unit_cursor[v] = i
                return u
        return -1

    # -- exact shortest-path machinery --------------------------------------

    def _two_hop(self, x: int, y: int) -> float:
        """Exact minimum over materialized two-edge paths (gate included).

        Only a closed point gets here, so L >= 1 (at L < 1, M > n and no
        degree reaches M): point-point edges weigh 1 or at least 2, and no
        two-edge path is shorter than 2. Two unit edges give 2.0; every other
        two-edge path costs at least 3, so the gate route L + L wins up to
        there. Only beyond that are the common neighbors enumerated.
        """
        gate_route = self.L + self.L
        ax, ay = self._adj[x], self._adj[y]
        ux, uy = self._unit_nbrs[x], self._unit_nbrs[y]
        short, other = (ux, ay) if len(ux) <= len(uy) else (uy, ax)
        if 1.0 in map(other.get, short):
            return 2.0
        if gate_route <= 3.0:
            return gate_route
        if len(ax) > len(ay):
            ax, ay = ay, ax
        return min([ax[m] + ay[m] for m in ax.keys() & ay.keys()])

    def _virtual_candidate(self, x: int, y: int):
        """Best path using exactly one open-open virtual edge: each endpoint
        anchors at itself when open, else at an open unit-weight neighbor.
        Returns (weight, (u, v)) or None. The anchors never coincide: that
        takes a direct unit edge (an endpoint open) or a shared open unit
        neighbor (both closed, so `_two_hop` gives 2), and `_case3` builds
        no candidate once the answer is at or below 2."""
        if self.status[x]:
            ax, ua = 0.0, x
        else:
            ua = self._find_open_unit_nbr(x)
            if ua < 0:
                return None
            ax = 1.0
        if self.status[y]:
            by, vb = 0.0, y
        else:
            vb = self._find_open_unit_nbr(y)
            if vb < 0:
                return None
            by = 1.0
        return ax + 1.0 + by, (ua, vb)

    def _dijkstra_hat(self, src: int, dst: int, cap: float):
        """Exact dist in the graph plus the implicit open clique, capped.

        Settling the first open vertex relaxes every open vertex once; any
        later open settle is dominated, and a shortest path never needs two
        virtual hops. Returns (dist, virtual edge used or None); dist >= cap
        means nothing beats the caller's candidate.
        """
        dist = {src: 0.0}
        pred: dict[int, tuple[int, bool]] = {}
        heap = [(0.0, src)]
        done = set()
        relaxed_clique = False
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            if d >= cap:
                return math.inf, None
            done.add(u)
            if u == dst:
                virt = None
                node = dst
                while node != src:
                    parent, via_virtual = pred[node]
                    if via_virtual:
                        virt = (parent, node)
                    node = parent
                return d, virt
            if self.status[u] and not relaxed_clique:
                relaxed_clique = True
                nd = d + 1.0
                if nd < cap:
                    for v in range(self.n):
                        if self.status[v] and v != u and v not in done:
                            if nd < dist.get(v, math.inf):
                                dist[v] = nd
                                pred[v] = (u, True)
                                heapq.heappush(heap, (nd, v))
            for v, w in self._adj[u].items():
                if v in done:
                    continue
                nd = d + w
                if nd < dist.get(v, math.inf) and nd < cap:
                    dist[v] = nd
                    pred[v] = (u, False)
                    heapq.heappush(heap, (nd, v))
        return math.inf, None

    def _case3(self, x: int, y: int):
        """Exact shortest-path distance between two points that are not both
        open, and the open-open virtual edge the path uses (or None). With
        L >= 1 (see `_two_hop`) every path below 3 is the direct edge, a
        two-edge path or a one-virtual-edge path anchored at unit neighbors,
        all enumerated exactly, so a candidate of at most 3 is final. The
        virtual candidate is only built once those paths miss 2: building it
        advances the round-robin anchors, which later answers depend on."""
        best = min(self._adj[x].get(y, math.inf), self._two_hop(x, y))
        virt = None
        if best > 2.0:
            cand = self._virtual_candidate(x, y)
            if cand is not None and cand[0] < best:
                best, virt = cand
        if best <= 3.0:
            return best, virt
        d, dvirt = self._dijkstra_hat(x, y, best)
        if d < best:
            return d, dvirt
        return best, virt

    # -- query answering -----------------------------------------------------

    def answer_query(self, x: int, y: int) -> float:
        """Answer one algorithm query, updating the graph (Cases 1-3)."""
        if self.finalized:
            raise RuntimeError("session already finalized")
        if self.budget is not None and self.algo_queries >= self.budget:
            raise QueryBudgetExceededError("query budget exceeded")
        ans = self._answer(x, y)
        self.algo_queries += 1
        return ans

    def _answer(self, x: int, y: int) -> float:
        if x == y or not (0 <= x < self.n and 0 <= y < self.n):
            raise MetricInputError("queries must name two distinct points")
        existing = self._adj[x].get(y)
        if existing is not None:
            ans = existing
        elif self.status[x] and self.status[y]:
            ans = 1.0
            self._push_edge(x, y, 1.0)
        else:
            ans, virt = self._case3(x, y)
            if virt is not None:
                self._push_edge(virt[0], virt[1], 1.0)
            self._push_edge(x, y, ans)
        self._qx.append(x)
        self._qy.append(y)
        self._qa.append(ans)
        return ans

    # -- finalization ---------------------------------------------------------

    def finalize(self, centers) -> "FinalMetric":
        """Pad the returned solution to k centers, issue the artificial
        queries from each center to every point, and freeze the graph."""
        if self.finalized:
            raise RuntimeError("session already finalized")
        S = [int(c) for c in centers]
        if len(S) > self.k:
            raise MetricInputError("solution exceeds k centers")
        used = set(S)
        fill = 0
        while len(S) < self.k:
            if fill not in used:
                S.append(fill)
                used.add(fill)
            fill += 1
        for s in S:
            row = np.empty(self.n)
            row[s] = 0.0
            for x in range(self.n):
                if x != s:
                    row[x] = self._answer(s, x)
                    self.artificial_queries += 1
            self._center_rows[s] = row
        self.finalized = True
        self.final_centers = S
        return FinalMetric(self)

    def transcript(self):
        return (np.asarray(self._qx, dtype=np.int64),
                np.asarray(self._qy, dtype=np.int64),
                np.asarray(self._qa, dtype=np.float64))

    def closed_points(self) -> int:
        return self.n - sum(self.status[: self.n])

    def edge_count(self) -> int:
        """Materialized edges, gate star included; each sits in two maps."""
        return sum(map(len, self._adj)) // 2


class FinalMetric:
    """Exact shortest-path metric over the finalized graph, evaluated lazily
    by the routine the live adversary answers Case 3 with."""

    def __init__(self, session: AdversarySession):
        if not session.finalized:
            raise RuntimeError("finalize the session first")
        self.session = session
        self.n = session.n

    def distance(self, x: int, y: int) -> float:
        s = self.session
        if x == y:
            return 0.0
        if s.status[x] and s.status[y]:
            return 1.0
        return s._case3(x, y)[0]

    def matrix(self) -> np.ndarray:
        """Dense metric: shortest-path closure of the augmented graph."""
        s = self.session
        if self.n > 2048:
            raise MetricInputError("dense finalized metric capped at n = 2048")
        size = self.n + 1
        D = np.full((size, size), np.inf)
        for u, v, w in s.edges():
            D[u, v] = D[v, u] = w
        open_ids = np.array([v for v in range(self.n) if s.status[v]], dtype=np.int64)
        block = D[np.ix_(open_ids, open_ids)]
        np.minimum(block, 1.0, out=block)
        D[np.ix_(open_ids, open_ids)] = block
        return metric_closure(D)[: self.n, : self.n]


@dataclass
class AdversaryAudit:
    n: int
    k: int
    delta: float
    objective: Objective
    M: float
    log_m_n: float
    r: int
    trivial_regime: bool
    algo_queries: int
    artificial_queries: int
    nominal_budget: float
    within_budget: bool
    edges_total: int
    closed_nodes: int
    closed_bound: float
    solution_cost: float
    solution_bound: float
    witness: tuple[int, ...]
    witness_cost: float
    witness_bound: float
    ratio: float
    ratio_bound: float
    consistency_pairs: int
    neighbor_profile: dict[int, list[int]]
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def _consistency_violations(session: AdversarySession, metric: FinalMetric) -> list[str]:
    """Every answered pair must sit at its answered distance in the final
    metric. One pass checks (i) gate edges weigh L, (ii) every point-point
    edge weighs 1 or at least lb = 2*min(1, L), and (iii) no edge heavier
    than 1 joins two open points. Then every edge, the implicit open-open
    ones included, weighs at least min(1, L), and by (iii) an implicit u-v
    edge only doubles a unit edge; any other u-v path has two or more edges
    and costs at least lb. So an edge of weight w <= lb is tight without a
    search, and only heavier edges are re-derived through the final metric.
    """
    out = []
    gate, L, status = session.gate, session.L, session.status
    lb = 2.0 * min(1.0, L)
    for u, v, w in session.edges():
        if v == gate:  # edges() yields u < v, and the gate is vertex n
            if w == L:
                continue
            bad = f"gate edge ({u},{v}) has weight {w!r} != log_M n"
        elif w == 1.0:
            continue
        elif w < lb:
            bad = f"pair ({u},{v}): weight {w!r} is neither 1 nor at least {lb!r}"
        elif status[u] and status[v]:
            bad = f"pair ({u},{v}): weight {w!r} joins two open points"
        elif w <= lb or close(d := metric.distance(u, v), w):
            continue
        else:
            bad = f"pair ({u},{v}): answered {w!r} but final distance {d!r}"
        out.append(bad)
        if len(out) > 20:
            out.append("... consistency check aborted after 20 violations")
            return out
    # logged answers must equal the edge weights they created
    adj = session._adj
    for i, (x, y, a) in enumerate(zip(session._qx, session._qy, session._qa)):
        if adj[x].get(y) != a:
            out.append(f"log entry {i} disagrees with its edge weight")
            break
    return out


def audit_session(session: AdversarySession, metric: FinalMetric) -> AdversaryAudit:
    """Run every post-hoc check against the finalized construction."""
    if not session.finalized:
        raise RuntimeError("audit requires a finalized session")
    n, k = session.n, session.k
    obj = session.objective
    S = session.final_centers
    r = int(math.floor(session.L + 1e-12))
    trivial = r < 1
    rows = session._center_rows
    dS = np.min(np.stack([rows[s] for s in S]), axis=0)
    solution_cost = float(obj.point_cost(dS).sum())
    solution_bound = (n / 2.0) * (r * r if obj is Objective.MEANS else r)

    witness_first = next((v for v in range(n) if session.status[v]), None)
    witness: list[int] = [] if witness_first is None else [witness_first]
    fill = 0
    while len(witness) < k and fill < n:
        if fill not in witness:
            witness.append(fill)
        fill += 1
    if witness:
        dW = np.empty(n)
        for x in range(n):
            dW[x] = min(metric.distance(x, w) for w in witness)
        witness_cost = float(obj.point_cost(dW).sum())
    else:
        witness_cost = math.inf
    witness_bound = 5.0 * n if obj is Objective.MEANS else 3.0 * n

    closed = session.closed_points()
    closed_bound = (10.0 * k * session.delta / session.M) * n
    ratio = solution_cost / witness_cost if witness_cost > 0 else math.inf
    ratio_bound = (r * r) / 10.0 if obj is Objective.MEANS else r / 6.0

    nominal = n * k * session.delta
    audit = AdversaryAudit(
        n=n, k=k, delta=session.delta, objective=obj, M=session.M,
        log_m_n=session.L, r=r, trivial_regime=trivial,
        algo_queries=session.algo_queries,
        artificial_queries=session.artificial_queries,
        nominal_budget=nominal,
        within_budget=session.algo_queries <= nominal,
        edges_total=session.edge_count(),
        closed_nodes=closed, closed_bound=closed_bound,
        solution_cost=solution_cost, solution_bound=solution_bound,
        witness=tuple(witness), witness_cost=witness_cost,
        witness_bound=witness_bound, ratio=ratio, ratio_bound=ratio_bound,
        consistency_pairs=len(session._qa),
        neighbor_profile={},
    )
    audit.violations.extend(_consistency_violations(session, metric))
    # the witness and closed-node lemmas assume the n*k*delta allowance: over
    # budget, their failures collapse into one premise-not-met verdict
    unmet: list[str] = []
    lemmas = audit.violations if audit.within_budget else unmet
    if witness_first is None:
        lemmas.append("no open node survives; witness construction failed")
    if not trivial:
        if not leq(solution_bound, solution_cost):
            audit.violations.append(
                f"solution cost {solution_cost!r} below lower bound {solution_bound!r}")
        if not leq(ratio_bound, ratio):
            audit.violations.append(
                f"implied ratio {ratio!r} below {ratio_bound!r}")
    if witness and not leq(witness_cost, witness_bound):
        lemmas.append(
            f"witness cost {witness_cost!r} exceeds {witness_bound!r}")
    if not leq(closed, closed_bound):
        lemmas.append(
            f"{closed} closed nodes exceed bound {closed_bound!r}")
    if unmet:
        audit.violations.append(
            f"premise not met: {session.algo_queries} queries exceed the n·k·δ "
            f"allowance {nominal!r}; closed-node and witness bounds not checked")
    total_answers = session.algo_queries + session.artificial_queries
    if session.edge_count() > 2 * total_answers + n:
        audit.violations.append("edge count exceeds 2 per answer plus the gate star")
    if audit.within_budget:
        paper_edges = 2 * nominal + 2 * n * k + n
        if session.edge_count() > paper_edges:
            audit.violations.append(
                f"edge count {session.edge_count()} exceeds {paper_edges}")
    # neighbor counts at each exact distance i <= r from every returned center
    for z in S:
        row = rows[z]
        profile = []
        for i in range(1, r + 1):
            cnt = int(np.count_nonzero(np.abs(row - i) <= ABS_TOL))
            profile.append(cnt)
            bound = session.M * (session.M - 1) ** (i - 1)
            if cnt > bound + ABS_TOL:
                audit.violations.append(
                    f"center {z}: {cnt} points at distance {i} exceed {bound!r}")
        audit.neighbor_profile[z] = profile
    return audit


@dataclass
class AdversaryRunResult:
    solution: Solution
    audit: AdversaryAudit
    session: AdversarySession
    metric: FinalMetric


class AdversaryOracle(DistanceOracle):
    """Algorithm-facing oracle: routes distinct pairs through the adversary;
    d(x, x) is 0 by the metric axioms and never reaches the session."""

    stable_metric = False

    def __init__(self, session: AdversarySession):
        super().__init__(session.n)
        self.session = session

    def diameter_bound(self) -> float:
        """No answer exceeds the gate route 2L. Makes no query."""
        return self.session.L + self.session.L

    def _pairwise(self, rows, cols):
        answer = self.session.answer_query
        cols = cols.tolist()
        out = [[0.0 if i == j else answer(i, j) for j in cols] for i in rows.tolist()]
        return np.array(out, dtype=np.float64).reshape(rows.size, len(cols))


def run_against(algorithm, n: int, k: int, delta: float,
                objective: Objective | str = Objective.MEDIAN,
                enforce_budget: bool = False) -> AdversaryRunResult:
    """Wire `algorithm(space, k, objective) -> Solution` to a fresh adversary,
    capture its output, finalize, and audit. Deterministic end to end."""
    obj = as_objective(objective)
    budget = int(n * k * delta) if enforce_budget else None
    session = AdversarySession(n, k, delta, obj, budget=budget)
    oracle = AdversaryOracle(session)
    space = WeightedMetricSpace(oracle, np.ones(n))
    solution = algorithm(space, k, obj)
    metric = session.finalize(solution.centers)
    audit = audit_session(session, metric)
    return AdversaryRunResult(solution=solution, audit=audit, session=session,
                              metric=metric)
