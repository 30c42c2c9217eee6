"""The main deterministic pipeline: binary partition hierarchy, bottom-up
restricted reverse-greedy solves, sparsifier extraction down to k centers.

Phase I builds the refinement tree without touching the oracle. Phase II
walks it bottom-up, running Res-Greedy_{2k} on each part restricted to the
union of its children's solutions (so every candidate set has size <= 4k).
Phase III projects the space onto the <= 2k survivors, accumulates weights,
and runs the constant-factor local-search solver on that sparsified space.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import local_search_kmedian
from .greedy import BoundCertificate, _res_greedy_core, audit_certificate
from .metric import (
    EnumerationBudgetError,
    Objective,
    Solution,
    WeightedMetricSpace,
    as_objective,
    assign_nearest,
    build_solution,
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


def means_eps(n: int, k: int) -> float:
    """Epsilon used by the means-mode bound audits: 1/(1 + log2(n/k))."""
    return 1.0 / (1.0 + math.log2(max(1.0, n / k)))


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


def phase2(space: WeightedMetricSpace, hierarchy: PartitionHierarchy, k: int,
           objective: Objective | str = Objective.MEDIAN) -> list[int]:
    """Phase II. Fills hierarchy.centers / certificates and returns V_0."""
    obj = as_objective(objective)
    eps = means_eps(space.n, k) if obj is Objective.MEANS else None
    depth = hierarchy.depth
    hierarchy.centers = [[[] for _ in level] for level in hierarchy.parts]
    hierarchy.certificates = [[None for _ in level] for level in hierarchy.parts]
    for i in range(depth, -1, -1):
        for j, part in enumerate(hierarchy.parts[i]):
            if part.size == 0:
                continue
            if i == depth:
                restriction = part
            else:
                restriction = hierarchy.centers[i + 1][2 * j] + hierarchy.centers[i + 1][2 * j + 1]
            hierarchy.centers[i][j], hierarchy.certificates[i][j], _ = _res_greedy_core(
                space, restriction, 2 * k, obj, part, k=k, eps=eps)
    return hierarchy.centers[0][0]


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


def sparsify(space: WeightedMetricSpace, v0) -> SparsifiedSpace:
    """Phase III sparsifier: sigma maps every point to its nearest survivor
    (ties to the smallest index); w_0 accumulates the projected weight."""
    points = np.unique(np.asarray(v0, dtype=np.int64))
    sigma = assign_nearest(space, points)
    w0 = np.zeros(points.size)
    local = np.searchsorted(points, sigma)
    np.add.at(w0, local, space.weights)
    return SparsifiedSpace(space=space, points=points, weights=w0, sigma=sigma)


def extract_k(sparsified: SparsifiedSpace, k: int,
              objective: Objective | str = Objective.MEDIAN) -> Solution:
    """Run the constant-factor solver on (V_0, w_0, d) and lift the centers
    back to a solution over the full space."""
    obj = as_objective(objective)
    if sparsified.points.size <= k:
        centers = sparsified.points.tolist()
    else:
        inner = local_search_kmedian(sparsified.view(), k, obj, universe=sparsified.points)
        centers = sorted(inner.centers)
    return build_solution(sparsified.space, centers, obj)


@dataclass
class PipelineMetrics:
    n: int
    k: int
    objective: Objective
    queries: int
    wall_millis: float
    depth: int
    v0_size: int
    eps: float | None


def hierarchical_cluster(space: WeightedMetricSpace, k: int,
                         objective: Objective | str = Objective.MEDIAN,
                         keep_hierarchy: bool = False):
    """Full Phase I-III pipeline. Deterministic: identical inputs give
    byte-identical outputs. Returns (Solution, PipelineMetrics) and, when
    keep_hierarchy is set, the filled hierarchy and sparsifier as well."""
    obj = as_objective(objective)
    t0 = time.perf_counter()
    q0 = space.oracle.query_count
    hierarchy = build_partitions(space, k)
    if space.oracle.query_count != q0:
        raise RuntimeError("Phase I must not query the oracle")
    v0 = phase2(space, hierarchy, k, obj)
    sparsified = sparsify(space, v0)
    solution = extract_k(sparsified, k, obj)
    metrics = PipelineMetrics(
        n=space.n,
        k=k,
        objective=obj,
        queries=space.oracle.query_count - q0,
        wall_millis=(time.perf_counter() - t0) * 1000.0,
        depth=hierarchy.depth,
        v0_size=len(v0),
        eps=means_eps(space.n, k) if obj is Objective.MEANS else None,
    )
    if keep_hierarchy:
        return solution, metrics, hierarchy, sparsified
    return solution, metrics


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
                   objective: Objective | str = Objective.MEDIAN,
                   budget: int = 10_000_000) -> PipelineAudit:
    """Run the pipeline and certify the whole bound chain with exact optima.

    Per internal node: cost(S_X, X) <= cost(R, X) + 2(H_{3k} - H_k) * OPT_k(X),
    the telescoped bound on cost(V_0, V), the measured-(alpha, beta) extraction
    bound, and step-level certificate audits. Requires brute-forceable sizes.
    """
    obj = as_objective(objective)
    solution, metrics, hierarchy, sparsified = hierarchical_cluster(
        space, k, obj, keep_hierarchy=True)
    opt, _ = opt_bruteforce(space, k, objective=obj, budget=budget)
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
    eps = means_eps(space.n, k)
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
                                          candidates=part, objective=obj, budget=budget)
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
                step_audit = audit_certificate(cert, opt_x, k=k, eps=eps)
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
    # extraction side: measured alpha on the sparsified space, chain beta above
    sparse_view = sparsified.view()
    opt_sparse, _ = opt_bruteforce(sparse_view, min(k, sparsified.points.size),
                                   universe=sparsified.points,
                                   candidates=sparsified.points,
                                   objective=obj, budget=budget)
    inner_cost = cost(sparse_view, solution.centers, universe=sparsified.points,
                      objective=obj)
    if opt > 0 and opt_sparse > 0:
        audit.alpha = inner_cost / opt_sparse
        audit.beta_chain = audit.chain_v0_bound / opt
        audit.chain_ratio_bound = (2 * audit.alpha
                                   + (1 + 2 * audit.alpha) * audit.beta_chain)
        if not leq(audit.ratio, audit.chain_ratio_bound):
            audit.violations.append(
                f"ratio {audit.ratio!r} exceeds audited chain bound "
                f"{audit.chain_ratio_bound!r}")
    elif solution.cost > 0 and opt == 0:
        audit.violations.append("OPT = 0 but the pipeline returned positive cost")
    return audit
