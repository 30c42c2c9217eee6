"""The main deterministic pipeline: binary partition hierarchy, bottom-up
restricted reverse-greedy solves, sparsifier extraction down to k centers.

Phase I builds the refinement tree without touching the oracle. Phase II
walks it bottom-up, running Res-Greedy_{2k} on each part restricted to the
union of its children's solutions (so every candidate set has size <= 4k),
one lockstep batch per level and node shape. It asks each pair at most once
outside the leaves' own squares: a node's matrix is assembled from its
children's surviving columns plus the two cross blocks, and the root's
surviving columns are the V x V_0 block that Phase III reads.
Phase III projects the space onto the <= 2k survivors, accumulates weights,
and runs the constant-factor local-search solver on that sparsified space;
the projection and the final nearest-center sweep over the k centers read
that block, so only the local search asks the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baselines import audit_sparsifier, composition_factor, local_search_kmedian
from .greedy import BoundCertificate, audit_certificate, res_greedy_batch
from .metric import (
    EnumerationBudgetError,
    Objective,
    Solution,
    WeightedMetricSpace,
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


@dataclass
class PartitionHierarchy:
    """Levels Q_0..Q_ell of the binary refinement tree. Children of part j at
    level i sit at positions 2j and 2j+1 of level i+1. Empty parts are kept so
    the index arithmetic stays trivial."""

    n: int
    k: int
    depth: int
    parts: list[list[np.ndarray]]
    centers: list[list[list[int]]] | None = None
    certificates: list[list[BoundCertificate | None]] | None = None

    def structure_violations(self) -> list[str]:
        out = []
        if len(self.parts[0]) != 1 or self.parts[0][0].size != self.n:
            out.append("level 0 must be the whole space")
        for i, level in enumerate(self.parts):
            if len(level) != 2 ** i:
                out.append(f"level {i}: {len(level)} parts, expected {2 ** i}")
            bound = self.n / 2 ** i + 2
            for part in level:
                if part.size > bound + 1e-9:
                    out.append(f"level {i}: part size {part.size} exceeds {bound!r}")
            if i > 0:
                for j in range(0, len(level), 2):
                    if abs(level[j].size - level[j + 1].size) > 1:
                        out.append(f"level {i}: siblings {j},{j+1} differ by more than 1")
                prev = self.parts[i - 1]
                # splits preserve order, so refinement is plain concatenation
                merged = np.concatenate(level) if level else np.empty(0, dtype=np.int64)
                parent = np.concatenate(prev) if prev else np.empty(0, dtype=np.int64)
                if not np.array_equal(merged, parent):
                    out.append(f"level {i} does not refine level {i - 1}")
        return out


def build_partitions(space: WeightedMetricSpace, k: int) -> PartitionHierarchy:
    """Phase I. Splits preserve input order; the first child takes ceil(|X|/2)
    points. Makes no distance queries."""
    n = space.n
    k = check_k(k, n)
    depth = depth_for(n, k)
    levels = [[np.arange(n, dtype=np.int64)]]
    for _ in range(depth):
        nxt = []
        for part in levels[-1]:
            half = (part.size + 1) // 2
            nxt.append(part[:half])
            nxt.append(part[half:])
        levels.append(nxt)
    return PartitionHierarchy(n=n, k=k, depth=depth, parts=levels)


def _cross_block(space: WeightedMetricSpace, a: np.ndarray, b: np.ndarray,
                 left: tuple[np.ndarray, np.ndarray],
                 right: tuple[np.ndarray, np.ndarray] | None, D: np.ndarray) -> None:
    """Write into D the |X| x |R| matrix of the node X = a ++ b with
    candidates R = c(a) ++ c(b), from each child's (centers, surviving
    columns) pair. Asks a x c(b), then (b minus c(b)) x c(a), each row-major;
    the c(b) x c(a) rows are the transpose of a x c(b)'s c(a) rows (every
    oracle answers d(x, y) and d(y, x) alike). Parts are ascending id ranges,
    so an id's row is its offset from the part's first id."""
    ca, da = left
    na, ma = a.size, ca.size
    D[:na, :ma] = da
    if b.size == 0:
        return
    cb, db = right
    D[na:, ma:] = db
    D[:na, ma:] = upper = space.pairwise(a, cb)
    lower = D[na:, :ma]
    kept = cb - b[0]
    if kept.size < b.size:
        rest = np.ones(b.size, dtype=bool)
        rest[kept] = False
        lower[rest] = space.pairwise(b[rest], ca)
    lower[kept] = upper[ca - a[0]].T


def phase2(space: WeightedMetricSpace, hierarchy: PartitionHierarchy, k: int,
           objective: Objective | str = Objective.MEDIAN) -> tuple[list[int], np.ndarray]:
    """Phase II. Fills hierarchy.centers / certificates and returns V_0 with
    the V x V_0 block that sparsify reads (centers ascending). A level makes
    its requests in node order: each leaf asks its X x X square, each
    internal node fills its matrix with _cross_block and drops its children's
    blocks. Each node writes into its slot of one preallocated B x |X| x |R|
    array per shape; greedy makes no query, so each shape then runs as one
    `res_greedy_batch`."""
    obj = as_objective(objective)
    depth = hierarchy.depth
    hierarchy.centers = [[[] for _ in level] for level in hierarchy.parts]
    hierarchy.certificates = [[None for _ in level] for level in hierarchy.parts]
    below: list[tuple[np.ndarray, np.ndarray] | None] = []
    for i in range(depth, -1, -1):
        parts = hierarchy.parts[i]
        # a leaf's candidates are its part, a node's its children's survivors
        restriction = {j: part if i == depth else np.concatenate(
                           [c[0] for c in below[2 * j:2 * j + 2] if c is not None])
                       for j, part in enumerate(parts) if part.size}
        groups: dict[tuple[int, int], list[int]] = {}
        for j, R in restriction.items():
            groups.setdefault((parts[j].size, R.size), []).append(j)
        blocks = {shape: np.empty((len(js), *shape)) for shape, js in groups.items()}
        slot = {j: blocks[shape][t] for shape, js in groups.items() for t, j in enumerate(js)}
        for j in restriction:
            if i == depth:
                slot[j][...] = space.pairwise(parts[j], parts[j])
            else:
                a, b = hierarchy.parts[i + 1][2 * j:2 * j + 2]
                _cross_block(space, a, b, below[2 * j], below[2 * j + 1], slot[j])
                below[2 * j] = below[2 * j + 1] = None
        below = [None] * len(parts)
        for shape, js in groups.items():
            runs = res_greedy_batch(space, np.stack([restriction[j] for j in js]), 2 * k, obj,
                                    np.stack([parts[j] for j in js]), k=k,
                                    distances=blocks[shape])
            for j, (solution, hierarchy.certificates[i][j]) in zip(js, runs):
                hierarchy.centers[i][j] = list(solution.centers)
                kept = np.searchsorted(restriction[j], solution.centers)
                below[j] = restriction[j][kept], slot[j][:, kept]
    return hierarchy.centers[0][0], below[0][1]


@dataclass
class SparsifiedSpace:
    """Projection of the space onto V_0 with accumulated weights."""

    space: WeightedMetricSpace
    points: np.ndarray
    weights: np.ndarray
    sigma: np.ndarray

    def total_weight(self) -> float:
        return float(self.weights.sum())

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
    points = np.unique(np.asarray(v0, dtype=np.int64))
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
    for i, level in enumerate(hierarchy.parts):
        for j, part in enumerate(level):
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
