"""The main deterministic pipeline (binary partition hierarchy, bottom-up
restricted reverse-greedy solves, sparsifier extraction down to k centers)
and the Guha et al. branching baseline, which recurses over the same kind of
hierarchy.

Both hierarchies are nested id ranges in one format: split_levels gives
each level as one array of boundaries, and range_violations is their one
structure check. Phase I makes ceil(log2(n/k)) binary splits without
touching the oracle. Phase II walks them bottom-up, running Res-Greedy_{2k}
on each part restricted to the union of its children's solutions (so every
candidate set has size <= 4k). A level's parts of one size share one shape,
and each such group is built by array operations and solved in one lockstep
batch, whose alive mask gives the survivors; only the requests run per node,
in node order. It asks each pair at most once outside the leaves' own
squares: a node's matrix is assembled from its children's surviving columns
plus the two cross blocks, and the root's surviving columns are the
V x V_0 block that Phase III reads. Phase III projects the space onto the
<= 2k survivors, accumulates weights, and runs the constant-factor
local-search solver on that sparsified space; the projection and the final
nearest-center sweep read that block, so only the local search asks the
oracle. The baseline splits by its branching schedule q instead and solves
every part with local search on the surviving weighted points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    SparsifierAudit,
    audit_sparsifier,
    composition_factor,
    local_search_kmedian,
)
from .greedy import BoundCertificate, audit_certificate, res_greedy_batch
from .metric import (
    EnumerationBudgetError,
    MetricInputError,
    Objective,
    Solution,
    WeightedMetricSpace,
    _index_array,
    as_objective,
    assign_nearest,
    build_solution,
    check_cost_bound,
    check_k,
    cost,
    leq,
    opt_bruteforce,
)


def depth_for(n: int, k: int) -> int:
    """ceil(log2(n/k)) computed in exact integer arithmetic."""
    ell = 0
    while (k << ell) < n:
        ell += 1
    return ell


def split_levels(n: int, q: list[int]) -> list[np.ndarray]:
    """Boundary arrays of nested range partitions of ids 0..n-1. Level 0 is
    [0, n]; level i cuts every range of level i-1 into p = q[i-1] consecutive
    ranges, child c of a range of m ids taking (m + p - 1 - c) // p ids, so
    the first m % p children take one id more (numpy's array_split rule; for
    p = 2 the first child takes ceil(m/2)). Nesting the floors, finest part j
    takes (n + N - 1 - rev[j]) // N ids, with N = prod(q): if j is reached
    through child c_i at level i, j = sum c_i * prod(q[i:]) and rev[j] =
    sum c_i * prod(q[:i-1]). Level i is every prod(q[i:])-th finest boundary,
    so it refines the level above, and a level's part sizes differ by at
    most 1."""
    rev = np.zeros(1, dtype=np.int64)
    for p in q:
        rev = (rev[:, None] + rev.size * np.arange(p)).ravel()
    finest = np.zeros(rev.size + 1, dtype=np.int64)
    np.cumsum((n + rev.size - 1 - rev) // rev.size, out=finest[1:])
    return [finest[::math.prod(q[i:])] for i in range(len(q) + 1)]


def range_violations(levels: list[np.ndarray], n: int, q: list[int]) -> list[str]:
    """The one structure check of split_levels' format: len(q) + 1 levels;
    level 0 is [0, n]; level i has |Q_{i-1}| * q[i-1] + 1 boundaries, none decreasing, every
    q[i-1]-th of them the level above; a level's part sizes differ by at
    most 1. Balance and refinement bound every part of level i by
    ceil(n / |Q_i|)."""
    out = [] if len(levels) == len(q) + 1 else [f"{len(levels)} levels, expected {len(q) + 1}"]
    if not np.array_equal(levels[0], [0, n]):
        out.append("level 0 must be the whole space [0, n]")
    for i, (above, bounds, p) in enumerate(zip(levels, levels[1:], q), 1):
        expected = (above.size - 1) * p + 1
        if bounds.shape != (expected,):
            out.append(f"level {i}: {bounds.size} boundaries, expected {expected}")
            continue
        sizes = np.diff(bounds)
        if (sizes < 0).any():
            out.append(f"level {i}: boundaries decrease")
        if not np.array_equal(bounds[::p], above):
            out.append(f"level {i} does not refine level {i - 1}")
        if sizes.max() - sizes.min() > 1:
            out.append(f"level {i}: sibling sizes or other part sizes differ by more than 1")
    return out


@dataclass
class PartitionHierarchy:
    """Levels Q_0..Q_ell of the binary refinement tree, as split_levels'
    boundary arrays: part j of level i is bounds[i][j]:bounds[i][j+1], and
    its children are parts 2j and 2j+1 of level i+1. Empty parts are kept so
    the index arithmetic stays trivial."""

    n: int
    k: int
    depth: int
    bounds: list[np.ndarray]
    centers: list[list[list[int]]] | None = None
    certificates: list[list[BoundCertificate | None]] | None = None

    def part(self, i: int, j: int) -> np.ndarray:
        return np.arange(self.bounds[i][j], self.bounds[i][j + 1])

    def structure_violations(self) -> list[str]:
        return range_violations(self.bounds, self.n, [2] * self.depth)


def build_partitions(space: WeightedMetricSpace, k: int) -> PartitionHierarchy:
    """Phase I: ceil(log2(n/k)) binary splits; the first child takes
    ceil(|X|/2) ids. Makes no distance queries."""
    n = space.n
    k = check_k(k, n)
    depth = depth_for(n, k)
    return PartitionHierarchy(n=n, k=k, depth=depth, bounds=split_levels(n, [2] * depth))


def _survivors(group, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The centers and surviving columns of a solved group's runs `rows`, the
    columns by one take over the flat block."""
    C, D, kept = group
    at = ((rows * D.shape[1])[:, None] + np.arange(D.shape[1])) * D.shape[2]
    return C[rows], D.reshape(-1).take(at[..., None] + kept[rows][:, None])


def phase2(space: WeightedMetricSpace, hierarchy: PartitionHierarchy, k: int,
           objective: Objective | str = Objective.MEDIAN) -> tuple[list[int], np.ndarray]:
    """Phase II. Fills hierarchy.centers / certificates and returns V_0 with
    the V x V_0 block that sparsify reads (centers ascending). A part's
    subtree depends only on its size, so a level's parts of one size form a
    group: array operations build its B x |X| x |R| block from the boundaries
    and the children's surviving columns, one `res_greedy_batch` solves it,
    and its survivors and their slots are read off the state's alive mask.
    Only the requests run per node, in node order: a leaf asks X x X (a
    one-point leaf asks nothing, its block is d(x, x) = 0); a node X = a ++ b,
    R = c(a) ++ c(b) asks a x c(b), then (b minus c(b)) x c(a), and its
    c(b) x c(a) rows are a x c(b)'s c(a) rows transposed (d is symmetric)."""
    obj = as_objective(objective)
    hierarchy.centers = [[[] for _ in range(b.size - 1)] for b in hierarchy.bounds]
    hierarchy.certificates = [[None] * (b.size - 1) for b in hierarchy.bounds]
    below, row = {}, None  # part size -> (centers, block, surviving slots) a level down
    for i in range(hierarchy.depth, -1, -1):
        bounds = hierarchy.bounds[i]
        sizes = np.diff(bounds)
        nodes, kid_row, row = np.flatnonzero(sizes), row, np.zeros_like(sizes)
        groups, asks = {}, {}
        for s in np.unique(sizes[nodes]).tolist():
            js = np.flatnonzero(sizes == s)
            B, row[js] = js.size, np.arange(js.size)
            X = bounds[js, None] + np.arange(s)  # the parts
            if i == hierarchy.depth:  # a one-point leaf asks nothing: d(x, x) = 0
                D = np.empty((B, s, s)) if s > 1 else np.zeros((B, 1, 1))
                groups[s], asks[s] = (js, X, X, D, None), [(D, X, X)] * (s > 1)
                continue
            na, nb = (s + 1) // 2, s // 2
            ma, mb = below[na][0].shape[1], below[nb][0].shape[1] if nb else 0
            D = np.empty((B, s, ma + mb))
            Ca, D[:, :na, :ma] = _survivors(below[na], kid_row[2 * js])
            if nb == 0:  # a single point: its child's center and column
                groups[s], asks[s] = (js, X, Ca, D, None), []
                continue
            Cb, D[:, na:, ma:] = _survivors(below[nb], kid_row[2 * js + 1])
            kept = Cb - X[:, na:na + 1]  # the rows of c(b) in b, then those of b minus c(b)
            rest = np.delete(np.tile(np.arange(nb), B), kept + nb * row[js, None]).reshape(B, -1)
            groups[s] = js, X, np.concatenate([Ca, Cb], axis=1), D, (Ca - X[:, :1], kept, rest)
            # (b minus c(b)) x c(a) lands in b's first rows, to move to its own
            asks[s] = [(D[:, :na, ma:], X[:, :na], Cb)] + [
                (D[:, na:s - mb, :ma], rest + X[:, na:na + 1], Ca)] * (nb > mb)
        below = None  # every surviving column now sits in its parent's block
        for s, t in zip(sizes[nodes].tolist(), row[nodes].tolist()):
            for out, rows, cols in asks[s]:
                out[t] = space.pairwise(rows[t], cols[t])
        below = {}
        for s, (js, X, R, D, fill) in groups.items():
            if fill is not None:
                at = np.arange(js.size)[:, None]
                ca, kept, rest = fill
                na, ma = (s + 1) // 2, ca.shape[1]
                # b's first rows move to their own (numpy copies the overlap first)
                D[:, na:, :ma][at, rest] = D[:, na:na + rest.shape[1], :ma]
                D[:, na:, :ma][at, kept] = D[:, :na, ma:][at, ca].transpose(0, 2, 1)
            state, certs = res_greedy_batch(space, R, 2 * k, obj, X, k=k, distances=D)
            alive, state = state.alive, None  # the state holds D: let `below` free it
            C = R[alive].reshape(js.size, -1)  # each run's alive centers, ascending
            for j, centers, cert in zip(js.tolist(), C.tolist(), certs):
                hierarchy.centers[i][j], hierarchy.certificates[i][j] = centers, cert
            below[s] = C, D, np.nonzero(alive)[1].reshape(C.shape)
    return hierarchy.centers[0][0], _survivors(below[hierarchy.n], np.zeros(1, dtype=int))[1][0]


@dataclass
class SparsifiedSpace:
    """Projection of the space onto V_0 with accumulated weights."""

    space: WeightedMetricSpace
    points: np.ndarray
    weights: np.ndarray
    sigma: np.ndarray

    def view(self) -> WeightedMetricSpace:
        """The whole space re-weighted by w_0 on V_0 and zero elsewhere."""
        w = np.zeros(self.space.n)
        w[self.points] = self.weights
        return self.space.with_weights(w)


def sparsify(space: WeightedMetricSpace, v0, distances=None) -> SparsifiedSpace:
    """Phase III sparsifier: sigma maps every point to its nearest survivor
    (ties to the smallest index); w_0 accumulates the projected weight.
    `distances`, the V x V_0 block with V_0 ascending, spares the sweep's
    n * |V_0| queries."""
    points = np.unique(_index_array(v0, space.n, "v0"))
    sigma = assign_nearest(space, points, distances=distances)
    w0 = np.zeros(points.size)
    local = np.searchsorted(points, sigma)
    np.add.at(w0, local, space.weights)
    return SparsifiedSpace(space=space, points=points, weights=w0, sigma=sigma)


def extract_k(sparsified: SparsifiedSpace, k: int,
              objective: Objective | str = Objective.MEDIAN, distances=None) -> Solution:
    """Run the constant-factor solver on (V_0, w_0, d) and lift the centers
    S back to a solution over the full space. `distances`, the V x V_0 block
    with V_0 ascending, holds V x S as its S columns and spares the final
    sweep's n * |S| queries."""
    obj = as_objective(objective)
    points = sparsified.points
    if points.size <= k:
        centers = points.tolist()
    else:
        inner = local_search_kmedian(sparsified.view(), k, obj, universe=points)
        centers = sorted(inner.centers)
    if distances is not None:
        distances = distances[:, np.searchsorted(points, centers)]
    return build_solution(sparsified.space, centers, obj, distances=distances)


@dataclass
class PipelineMetrics:
    queries: int
    hierarchy: PartitionHierarchy
    sparsified: SparsifiedSpace


def hierarchical_cluster(space: WeightedMetricSpace, k: int,
                         objective: Objective | str = Objective.MEDIAN
                         ) -> tuple[Solution, PipelineMetrics]:
    """Full Phase I-III pipeline. Deterministic: identical inputs give
    byte-identical outputs. The metrics carry the query count, the filled
    hierarchy and the sparsifier."""
    obj = as_objective(objective)
    check_cost_bound(space, obj)
    q0 = space.oracle.query_count
    hierarchy = build_partitions(space, k)
    if space.oracle.query_count != q0:
        raise RuntimeError("Phase I must not query the oracle")
    v0, root_block = phase2(space, hierarchy, k, obj)
    sparsified = sparsify(space, v0, root_block)
    solution = extract_k(sparsified, k, obj, root_block)
    return solution, PipelineMetrics(queries=space.oracle.query_count - q0,
                                     hierarchy=hierarchy, sparsified=sparsified)


@dataclass
class GuhaHierarchy:
    """The branching baseline's hierarchy: level i is a split_levels boundary
    array of prod(q[:i]) parts, and sigma[i] is the level's mapping, set by
    guha_hierarchical."""

    n: int
    k: int
    delta: float
    gamma: float
    depth: int
    q: list[int]
    bounds: list[np.ndarray]
    sigma: list[np.ndarray] = field(default_factory=list)

    def structure_violations(self) -> list[str]:
        """range_violations plus the product bounds on |Q_i|."""
        out = range_violations(self.bounds, self.n, self.q)
        for i, bounds in enumerate(self.bounds[1:], 1):
            count = bounds.size - 1
            lower = self.gamma ** (1.0 - 1.0 / 2 ** i)
            upper = math.e ** i * lower
            if not (leq(lower, count) and leq(count, upper)):
                out.append(f"level {i}: part count {count} outside [{lower!r}, {upper!r}]")
        return out


def build_guha_partitions(n: int, k: int, delta: float) -> GuhaHierarchy:
    """The branching schedule over gamma = n/k: ceil(log2(log gamma / log
    delta)) levels, level i splitting every part into ceil(gamma^(1/2^i))."""
    k = check_k(k, n)
    if not (2 <= delta <= max(2, n / k)):
        raise MetricInputError("delta must lie in [2, n/k]")
    gamma = n / k
    depth = 0 if gamma <= delta else math.ceil(math.log2(math.log(gamma) / math.log(delta)))
    q = [math.ceil(gamma ** (1.0 / 2 ** i)) for i in range(1, depth + 1)]
    return GuhaHierarchy(n=n, k=k, delta=delta, gamma=gamma, depth=depth, q=q,
                         bounds=split_levels(n, q))


@dataclass
class GuhaRunMetrics:
    queries: int
    hierarchy: GuhaHierarchy
    mapping: np.ndarray


def guha_hierarchical(space: WeightedMetricSpace, k: int, delta: float,
                      objective: Objective | str = Objective.MEDIAN
                      ) -> tuple[Solution, GuhaRunMetrics]:
    """Bottom-up hierarchical baseline: split by the branching schedule, solve
    each part on its surviving weighted points with local search, compose the
    mappings. Means inputs are solved under the normalized-means objective and
    reported under the requested one."""
    obj = as_objective(objective)
    solver_obj = Objective.MEDIAN if obj is Objective.MEDIAN else Objective.NORMALIZED_MEANS
    q0 = space.oracle.query_count
    hier = build_guha_partitions(space.n, k, delta)
    n = space.n
    in_level = np.ones(n, dtype=bool)
    weights_cur = space.weights
    # composed[x] = current representative of x after the levels applied so far
    composed = np.arange(n, dtype=np.int64)
    for bounds in reversed(hier.bounds):
        sigma_lvl = np.arange(n, dtype=np.int64)
        survivors = np.zeros(n, dtype=bool)
        next_weights = np.zeros(n)
        view = space.with_weights(weights_cur)
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            pts = lo + np.flatnonzero(in_level[lo:hi])
            if pts.size == 0:
                continue
            sol = local_search_kmedian(view, min(hier.k, pts.size), solver_obj, universe=pts)
            sigma_lvl[pts] = sol.assignment
            np.add.at(next_weights, sol.assignment, weights_cur[pts])
            survivors[list(sol.centers)] = True
        hier.sigma.insert(0, sigma_lvl)
        composed = sigma_lvl[composed]
        in_level = survivors
        weights_cur = next_weights
    centers = sorted(int(c) for c in np.unique(composed))
    solution = build_solution(space, centers, obj, universe=None)
    return solution, GuhaRunMetrics(space.oracle.query_count - q0, hier, composed)


def harmonic(lo: int, hi: int) -> float:
    """H_hi - H_lo = sum of 1/j for j in (lo, hi]."""
    return sum(1.0 / j for j in range(lo + 1, hi + 1))


@dataclass
class NodeAudit:
    level: int
    index: int
    part_size: int
    cost_sx: float
    cost_restriction: float
    opt_k: float
    bound: float
    ok: bool


@dataclass
class PipelineAudit:
    """Exact bound chain for one pipeline run on a brute-forceable instance."""

    n: int
    k: int
    objective: Objective
    ratio: float
    opt: float
    final_cost: float
    v0_cost: float
    chain_v0_bound: float
    alpha: float
    beta_chain: float
    chain_ratio_bound: float
    merge_constant: float
    nodes: list[NodeAudit] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def audit_pipeline(space: WeightedMetricSpace, k: int,
                   objective: Objective | str = Objective.MEDIAN) -> PipelineAudit:
    """Run the pipeline and certify the whole bound chain with exact optima.

    Per internal node: cost(S_X, X) <= cost(R, X) + 2(H_{3k} - H_k) * OPT_k(X),
    the telescoped bound on cost(V_0, V), step-level certificate audits, and
    `audit_sparsifier` on the extraction, whose measured alpha composes with
    the chain's certified beta. Requires brute-forceable sizes.
    """
    obj = as_objective(objective)
    solution, metrics = hierarchical_cluster(space, k, obj)
    hierarchy, sparsified = metrics.hierarchy, metrics.sparsified
    opt, _ = opt_bruteforce(space, k, objective=obj)
    if obj is Objective.MEDIAN:
        extraction = audit_sparsifier(space, sparsified.sigma, solution.assignment, k, obj, opt)
    v0 = hierarchy.centers[0][0]
    v0_cost = cost(space, v0, objective=obj)
    merge_c = 2.0 * harmonic(k, 3 * k)
    audit = PipelineAudit(
        n=space.n, k=k, objective=obj,
        ratio=(solution.cost / opt) if opt > 0 else math.inf,
        opt=opt, final_cost=solution.cost, v0_cost=v0_cost,
        chain_v0_bound=0.0, alpha=0.0, beta_chain=0.0,
        chain_ratio_bound=math.inf, merge_constant=merge_c)

    leaf_total = 0.0
    slack_total = 0.0
    for i, bounds in enumerate(hierarchy.bounds):
        for j in range(bounds.size - 1):
            part = hierarchy.part(i, j)
            if part.size == 0:
                continue
            centers = hierarchy.centers[i][j]
            cert = hierarchy.certificates[i][j]
            cost_sx = cost(space, centers, universe=part, objective=obj)
            if i == hierarchy.depth:
                leaf_total += cost_sx
                continue
            restriction = (hierarchy.centers[i + 1][2 * j]
                           + hierarchy.centers[i + 1][2 * j + 1])
            cost_r = cost(space, restriction, universe=part, objective=obj)
            try:
                opt_x, _ = opt_bruteforce(space, min(k, part.size), universe=part,
                                          candidates=part, objective=obj)
            except EnumerationBudgetError:
                audit.violations.append(f"node ({i},{j}) too large for the exact oracle")
                continue
            if obj is Objective.MEDIAN:
                bound = cost_r + merge_c * opt_x
                ok = leq(cost_sx, bound)
                audit.nodes.append(NodeAudit(i, j, int(part.size), cost_sx, cost_r,
                                             opt_x, bound, ok))
                slack_total += merge_c * opt_x
                if not ok:
                    audit.violations.append(
                        f"node ({i},{j}): cost(S_X, X) = {cost_sx!r} exceeds {bound!r}")
            if cert is not None and cert.steps:
                step_audit = audit_certificate(cert, opt_x, k=k)
                if not step_audit.passed:
                    audit.violations.extend(
                        f"node ({i},{j}): {v}" for v in step_audit.violations)
    if obj is not Objective.MEDIAN:
        # the explicit merge constant and the sparsifier lemma are median facts;
        # means mode is certified through the per-step audits above
        return audit
    audit.chain_v0_bound = leaf_total + slack_total
    if not leq(v0_cost, audit.chain_v0_bound):
        audit.violations.append(
            f"cost(V_0, V) = {v0_cost!r} exceeds the telescoped bound "
            f"{audit.chain_v0_bound!r}")
    # extraction side: the sparsifier audit's measured alpha, the chain's beta
    audit.violations.extend(extraction.violations)
    if opt > 0 and extraction.opt_sparse > 0:
        audit.alpha = extraction.alpha
        audit.beta_chain = audit.chain_v0_bound / opt
        audit.chain_ratio_bound = composition_factor(audit.alpha, audit.beta_chain)
        if not leq(audit.ratio, audit.chain_ratio_bound):
            audit.violations.append(
                f"ratio {audit.ratio!r} exceeds audited chain bound "
                f"{audit.chain_ratio_bound!r}")
    return audit


def audit_guha_recursion(space: WeightedMetricSpace, k: int, delta: float,
                         objective: Objective | str = Objective.MEDIAN
                         ) -> list[SparsifierAudit]:
    """Run the branching baseline and audit each level, deepest first, as one
    sparsifier composition: sigma is the mapping composed from the deeper
    levels (the identity at the deepest) and pi the level's own mapping, so
    the measured beta is the previous composition's ratio. Returns one
    audit per level. Brute-force sized instances only."""
    obj = as_objective(objective)
    solver_obj = Objective.MEDIAN if obj is Objective.MEDIAN else Objective.NORMALIZED_MEANS
    _, metrics = guha_hierarchical(space, k, delta, obj)
    opt_full, _ = opt_bruteforce(space, k, objective=solver_obj)
    composed = space.all_points()
    audits = []
    for sigma in reversed(metrics.hierarchy.sigma):
        audits.append(audit_sparsifier(space, composed, sigma, k, solver_obj, opt_full))
        composed = sigma[composed]
    return audits
