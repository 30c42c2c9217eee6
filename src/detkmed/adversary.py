"""Adaptive adversary for stress-testing deterministic clustering algorithms.

The adversary answers distance queries while building a weighted graph whose
shortest-path metric stays consistent with every answer it has given. Nodes
are one vertex per point plus a gate vertex wired to everyone at weight
log_M(n); a vertex closes permanently once its degree reaches M, which is
checked for both endpoints of every edge added. Queries between two open
vertices cost 1; anything touching a closed vertex is answered with the exact
shortest path through the graph augmented by implicit weight-1 edges between
open pairs (of which a shortest path uses at most one, so that one edge is
materialized when chosen). `_answer` is the one edge writer: it pushes the
unit edge (a Case-2 answer or that virtual edge), then a Case-3 answer's own
edge.

The graph is held as one dict per vertex mapping neighbor to weight, plus a
push counter per vertex (an int: the degree that closes it, repeated virtual
edges included) and, per vertex, the list of its unit-weight point neighbors
in push order, which fixes the round-robin order of virtual-edge anchors.
Every unit edge joins two open vertices, so that list is final once its
vertex closes, and the close freezes it into a set. Gate edges stay out of
those lists even at log_M(n) = 1, where M = n: a point then closes only after
all its n - 1 pairs are answered, so no answer needs a virtual edge or a
Dijkstra search.

One routine, `_case3`, gives every shortest path that touches a closed
vertex, for the live answers and the lazy final metric alike, without
materializing the open clique. It tries in order the direct edge, the best
two-edge path, the best path through one virtual edge anchored at open unit
neighbors, and below an enumeration threshold those are provably
exhaustive; only candidates above it fall back to a capped Dijkstra that
relaxes the open clique once at the first open vertex it settles. The
two-edge minimum is 2 when the endpoints share a unit neighbor (one set
disjointness test against a closed endpoint's frozen set, newest unit
neighbor first), else the gate route 2L while that costs at most one unit
edge plus the lightest other edge; only past that, and after the virtual
candidate misses 2, are common neighbors enumerated, by intersecting the
two vertex maps. The dense final matrix counts hops, capped at 2L, with no
search; the consistency audit reads each map and the log once.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .metric import (
    ABS_TOL,
    DistanceOracle,
    MetricInputError,
    Objective,
    Solution,
    WeightedMetricSpace,
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
        obj = Objective(objective)
        if obj is Objective.NORMALIZED_MEANS:
            raise MetricInputError("adversary supports median and means objectives")
        if n < 2:
            raise MetricInputError("adversary needs at least two points")
        if not (math.isfinite(delta) and delta >= 1):
            raise MetricInputError(f"delta must be a finite number of at least 1, got {delta!r}")
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
        # gate star, built in bulk, outside the unit lists (module docstring)
        self._adj: list[dict[int, float]] = [{self.gate: L} for _ in range(n)]
        self._adj.append(dict.fromkeys(range(n), L))
        self._deg = [1] * size
        self._deg[self.gate] = n
        # an integer degree reaches M exactly when it reaches ceil(M)
        self._close_at = math.ceil(self.M)
        self.status = bytearray([1]) * size
        self.status[self.gate] = 0
        self._unit_cursor = [0] * size
        self._unit_nbrs: list[list[int]] = [[] for _ in range(size)]
        self._unit_set: list[frozenset[int] | None] = [None] * size
        self._qx = array("i")
        self._qy = array("i")
        self._qa = array("d")
        self.algo_queries = 0
        self.artificial_queries = 0
        # per final center: answers to every point, filled by finalize()
        self._center_rows: dict[int, np.ndarray] = {}

    # -- graph bookkeeping -------------------------------------------------

    def _close(self, v: int) -> None:
        # called on the push that brings v's degree to M; v closes for good,
        # and its unit list is final (unit edges join open vertices), so it
        # is frozen
        self.status[v] = 0
        self._unit_set[v] = frozenset(self._unit_nbrs[v])

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
        grows, so it stays in range. Only live answers move it: the final
        metric reads without writing.
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
                if not self.finalized:
                    self._unit_cursor[v] = i
                return u
        return -1

    # -- exact shortest-path machinery --------------------------------------

    def _dijkstra_hat(self, src: int, dst: int, cap: float):
        """Exact dist in the graph plus the implicit open clique, capped.

        Settling the first open vertex relaxes every open vertex once; any
        later open settle is dominated, and a shortest path never needs two
        virtual hops. Only the source (at 0 < cap) and distances below cap
        are pushed. Returns (dist, virtual edge used or None); (inf, None)
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
        open, and the open-open virtual edge the path uses (or None).

        Only a closed point gets here, so L >= 1 (at L < 1, M > n and no
        degree reaches M): point-point edges weigh 1 or at least 2. A
        two-edge path through a point costs 2 over two unit edges, else at
        least 3, so the gate route 2L is the two-edge minimum up to 3. Every
        path below 3 is the direct edge (+inf for a fresh pair), a two-edge
        path or one virtual edge between the endpoints or their open unit
        neighbors, so a candidate of at most 3 is final. The virtual
        candidate is only built once the direct edge and the gate route miss
        2: on a live answer, building it advances the round-robin anchors,
        which later answers depend on; for the finalized metric the cursors
        stay put. Its anchors never coincide: that takes a direct unit edge
        or a shared open unit neighbor, both answered 2 or less before. Where
        2L > 3, the vertex maps are intersected only after it, and only when
        it misses 2 (no open anchor, or both endpoints closed): without a
        shared unit neighbor every two-edge path there costs at least 3, and
        one equal to the candidate wins.
        """
        ax, ay = self._adj[x], self._adj[y]
        best = ax.get(y, math.inf)
        sx, sy = self._unit_set[x], self._unit_set[y]
        if sx is None:  # newest first: recent unit neighbors hit far sooner
            shared = not sy.isdisjoint(reversed(self._unit_nbrs[x]))
        elif sy is None:
            shared = not sx.isdisjoint(reversed(self._unit_nbrs[y]))
        else:
            shared = not sx.isdisjoint(sy)
        if shared:
            return min(best, 2.0), None
        gate_route = self.L + self.L
        if gate_route <= 3.0:
            best = min(best, gate_route)
        virt = None
        if best > 2.0:
            status = self.status
            if status[x]:
                ua, cand = x, 1.0
            else:
                ua, cand = self._find_open_unit_nbr(x), 2.0
            if ua >= 0:
                if status[y]:
                    vb = y
                else:
                    vb, cand = self._find_open_unit_nbr(y), cand + 1.0
                if vb >= 0 and cand < best:
                    best, virt = cand, (ua, vb)
        if best > 2.0 and gate_route > 3.0:
            if len(ax) > len(ay):
                ax, ay = ay, ax
            scan = min([ax[m] + ay[m] for m in ax.keys() & ay.keys()])
            if scan <= best:  # a two-edge path equal to the candidate wins
                best, virt = scan, None
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
        if x == y or not (0 <= x < self.n and 0 <= y < self.n):
            raise MetricInputError("queries must name two distinct points")
        if self.budget is not None and self.algo_queries >= self.budget:
            raise QueryBudgetExceededError("query budget exceeded")
        ans = self._answer(x, y)
        self.algo_queries += 1
        return ans

    def _answer(self, x: int, y: int) -> float:
        adj = self._adj
        ans = adj[x].get(y)  # Case 1: a repeat
        if ans is None:
            if self.status[x] and self.status[y]:
                ans, unit = 1.0, (x, y)  # Case 2
            else:
                ans, unit = self._case3(x, y)  # unit: the virtual edge or None
            deg, close_at = self._deg, self._close_at
            # A unit edge joins two open points. A repeated virtual edge keeps
            # one map entry but counts in both unit lists and both degrees. One
            # answer can bump a vertex twice, so each increment is checked.
            if unit is not None:
                u, v = unit
                adj[u][v] = adj[v][u] = 1.0
                units = self._unit_nbrs
                units[u].append(v)
                units[v].append(u)
                du = deg[u] = deg[u] + 1
                if du == close_at:
                    self._close(u)
                dv = deg[v] = deg[v] + 1
                if dv == close_at:
                    self._close(v)
            if ans != 1.0:
                # Case 3's answered pair, after its virtual edge: it weighs at
                # least 2, since a closed point means L >= 1
                adj[x][y] = adj[y][x] = ans
                dx = deg[x] = deg[x] + 1
                if dx == close_at:
                    self._close(x)
                dy = deg[y] = deg[y] + 1
                if dy == close_at:
                    self._close(y)
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
        S = _padded(centers, self.n, self.k)
        answer = self._answer
        for s in S:
            row = [0.0 if x == s else answer(s, x) for x in range(self.n)]
            self.artificial_queries += self.n - 1
            self._center_rows[s] = np.array(row)
        self.finalized = True
        self.final_centers = S
        return FinalMetric(self)

    def transcript(self):
        """Copies of the (x, y, answer) columns: a view of the growing
        buffers would block every later answer."""
        return (np.array(self._qx, dtype=np.int64),
                np.array(self._qy, dtype=np.int64),
                np.array(self._qa, dtype=np.float64))

    def closed_points(self) -> int:
        return self.n - sum(self.status[: self.n])

    def edge_count(self) -> int:
        """Materialized edges, gate star included; each sits in two maps."""
        return sum(map(len, self._adj)) // 2


def _padded(ids, n: int, k: int) -> list[int]:
    """`ids` as distinct ints (a repeat is dropped), checked to be integers in
    [0, n) and at most k, then padded to k with the smallest unused ids."""
    S = list(dict.fromkeys(check_k(c, n - 1, "center", lo=0) for c in ids))
    if len(S) > k:
        raise MetricInputError("solution exceeds k centers")
    used = set(S)
    S += [v for v in range(n) if v not in used][: k - len(S)]
    return S


class FinalMetric:
    """Exact shortest-path metric over the finalized graph: `distance` runs the
    routine the live adversary answers Case 3 with, `matrix` counts hops."""

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
        """The metric as an n x n array, for n <= 2048, bit for bit `distance`.
        Each Case-3 answer is the length of a path the graph held then, and
        edges are never removed, so no edge heavier than 1 shortens a path:
        two points sit at min(h, 2L), h their hops over unit edges and the
        open clique. A closed row takes one float32 product per hop below 2L,
        whose counts (at most n) are exact and read only as > 0."""
        if self.n > 2048:
            raise MetricInputError("dense finalized metric capped at n = 2048")
        s = self.session
        n = self.n
        opens = np.frombuffer(s.status, np.uint8, n).astype(bool)
        closed = np.flatnonzero(~opens)
        units = np.zeros((n, n), np.float32)
        for v in range(n):
            units[v, s._unit_nbrs[v]] = 1.0
        two_l = s.L + s.L
        reach = closed[:, None] == np.arange(n)
        rows = np.where(reach, 0.0, two_l)
        for hop in range(1, math.ceil(two_l)):
            nxt = reach | (reach.astype(np.float32) @ units > 0)
            # an open point reached makes every open point one hop further
            nxt[(reach & opens).any(axis=1)] |= opens
            rows[nxt & ~reach] = hop
            reach = nxt
        D = 1.0 - np.eye(n)
        D[closed] = rows
        D[:, closed] = rows.T
        return D


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
    adj, gate, L, status, qa = session._adj, session.gate, session.L, session.status, session._qa
    lb = 2.0 * min(1.0, L)
    # each edge once, in edges() order; point-point unit edges, most entries, go first
    for u in range(gate):
        for v, w in adj[u].items():
            if (w == 1.0 and v != gate) or v < u:
                continue
            if v == gate:
                if w == L:
                    continue
                bad = f"gate edge ({u},{v}) has weight {w!r} != log_M n"
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
    # logged answers must equal their edge weights (NaN if missing), in blocks to bound peak RSS
    got = map(dict.get, map(adj.__getitem__, session._qx), session._qy, repeat(math.nan))
    for i in range(0, len(qa), 4096):
        block = qa[i:i + 4096]  # a copy: a view of the log would block later answers
        bad = np.flatnonzero(np.fromiter(got, np.float64, len(block)) != block)
        if bad.size:
            out.append(f"log entry {i + bad[0]} disagrees with its edge weight")
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
    witness = _padded([] if witness_first is None else [witness_first], n, k)
    dW = np.array([min(metric.distance(x, w) for w in witness) for x in range(n)])
    witness_cost = float(obj.point_cost(dW).sum())
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
    if not leq(witness_cost, witness_bound):
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
        session = self.session
        answer = session.answer_query
        before = session.algo_queries
        n = self._n
        ids = cols.tolist()
        try:  # a diagonal id outside [0, n) goes to the session, which rejects it
            out = [0.0 if i == j and 0 <= i < n else answer(i, j)
                   for i in rows.tolist() for j in ids]
        except (QueryBudgetExceededError, MetricInputError):
            # count the pairs before the stop, the first pair sent to the
            # session past those it answered
            r = np.repeat(rows, cols.size)
            sent = (r != np.tile(cols, rows.size)) | (r.view(np.uint64) >= n)
            self._bump(int(sent.nonzero()[0][session.algo_queries - before]))
            raise
        return np.array(out, dtype=np.float64).reshape(rows.size, cols.size)


def run_against(algorithm, n: int, k: int, delta: float,
                objective: Objective | str = Objective.MEDIAN,
                enforce_budget: bool = False) -> AdversaryRunResult:
    """Wire `algorithm(space, k, objective) -> Solution` to a fresh adversary,
    capture its output, finalize, and audit. Deterministic end to end."""
    obj = Objective(objective)
    budget = int(n * k * delta) if enforce_budget else None
    session = AdversarySession(n, k, delta, obj, budget=budget)
    oracle = AdversaryOracle(session)
    space = WeightedMetricSpace(oracle, np.ones(n))
    solution = algorithm(space, k, obj)
    metric = session.finalize(solution.centers)
    audit = audit_session(session, metric)
    return AdversaryRunResult(solution=solution, audit=audit, session=session,
                              metric=metric)
