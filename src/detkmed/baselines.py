"""Comparison algorithms: deterministic single-swap local search (the
constant-factor solver used by the pipelines) and the branching hierarchical
baseline with its recursion and sparsifier audits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metric import (
    _SCAN_CHUNK,
    MetricInputError,
    Objective,
    Solution,
    WeightedMetricSpace,
    _universe,
    as_objective,
    build_solution,
    check_k,
    leq,
    mapping_cost,
    opt_bruteforce,
)

# Swaps must beat the incumbent by this relative factor; guards against
# float-cycling and makes termination deterministic.
IMPROVEMENT_FACTOR = 1.0 + 1e-6


def local_search_kmedian(space: WeightedMetricSpace, k: int,
                         objective: Objective | str = Objective.MEDIAN,
                         universe=None) -> Solution:
    """Deterministic single-swap local search.

    Starts from the k smallest-index points of the universe and repeatedly
    applies the best (center out, non-center in) swap while it improves the
    cost by a factor of at least 1 + 1e-6. Swaps are scanned in (center
    column, candidate in universe order) order and the first strictly smaller
    total wins, so the run is reproducible.

    Each iteration prices every swap at once in a table (see `_swap_table`)
    that serves only as a filter: every swap whose table value lies within
    twice the table's float error bound of the table minimum is re-evaluated
    with the exact per-swap dot product, in scan order, with a strict `<`.
    The chosen swap, centers, cost and assignment are therefore exactly those
    of an exhaustive per-swap scan, and so are the oracle requests: U x
    centers once, U x non-centers once per iteration, and U x centers for the
    final solution.
    """
    obj = as_objective(objective)
    U = np.unique(_universe(space, universe, obj))
    k = check_k(k, U.size)
    w = space.weights[U]
    centers = U[:k].tolist()
    if k == U.size:
        return build_solution(space, centers, obj, universe=U)

    D = space.pairwise(U, np.asarray(centers, dtype=np.int64))
    is_center = np.zeros(U.size, dtype=bool)
    is_center[:k] = True
    current = obj.total(w, D.min(axis=1))
    rows = np.arange(U.size)
    while True:
        # first minimum: ties go to the lower column
        nearest_col = np.argmin(D, axis=1)
        d1 = D[rows, nearest_col]
        d2 = np.where(np.arange(k) == nearest_col[:, None], np.inf, D).min(axis=1)
        outside = U[~is_center]
        Dz = space.pairwise(U, outside)
        table = _swap_table(obj, w, d1, d2, nearest_col, k, Dz)
        # The table and the exact dot product both sum |U| nonnegative terms,
        # so each lies within about (|U| + 4) * eps / 2 of the true total, plus
        # one subnormal per term on underflow; `bound` is twice that at the
        # minimum. Any swap whose exact total can tie or beat the best one,
        # also after the sqrt of normalized-means, has a table value within
        # 2 * bound of the minimum. NaN entries fail `table > limit` and are
        # re-evaluated as well.
        low = table.min()
        bound = 2.0 * (U.size + 4) * (np.finfo(np.float64).eps * low
                                      + np.finfo(np.float64).smallest_subnormal)
        limit = low + 2.0 * bound
        best = (None, None, current)
        base_col, base = -1, None
        recheck_cols, recheck_zis = np.nonzero(~(table > limit))
        for col, zi in zip(recheck_cols.tolist(), recheck_zis.tolist()):
            if col != base_col:
                base_col = col
                base = obj.point_cost(np.where(nearest_col == col, d2, d1))
            dz = Dz[:, zi]
            total = obj.finalize(float(np.dot(w, np.minimum(base, obj.point_cost(dz)))))
            if total < best[2]:
                best = (col, zi, total)
        col, zi, improved = best
        if col is None or improved * IMPROVEMENT_FACTOR > current:
            break
        is_center[np.searchsorted(U, [centers[col], outside[zi]])] = (False, True)
        centers[col] = int(outside[zi])
        D[:, col] = Dz[:, zi]
        current = improved
    return build_solution(space, sorted(centers), obj, universe=U)


def _swap_table(obj: Objective, w: np.ndarray, d1: np.ndarray, d2: np.ndarray,
                nearest_col: np.ndarray, k: int, Dz: np.ndarray) -> np.ndarray:
    """Pre-finalize totals of every (center column, candidate) swap.

    With p1, p2 the point costs of each point's nearest and second-nearest
    center, PZ those of the candidates and M1 = min(p1, PZ), swapping column
    c for candidate z costs keep[z] + sum over points x nearest to c of
    w_x * (min(p2, PZ) - M1)[x, z], with keep = w @ M1. Points are grouped by
    nearest column, so one pass over the candidate columns fills the table.
    """
    grp = np.argsort(nearest_col, kind="stable")
    cols, starts = np.unique(nearest_col[grp], return_index=True)
    wg = w[grp]
    p1 = obj.point_cost(d1[grp])[:, None]
    p2 = obj.point_cost(d2[grp])[:, None]
    table = np.zeros((k, Dz.shape[1]))
    step = max(1, _SCAN_CHUNK // grp.size)
    for lo in range(0, Dz.shape[1], step):
        pz = obj.point_cost(Dz[grp, lo : lo + step])
        m1 = np.minimum(p1, pz)
        table[:, lo : lo + step] = wg @ m1
        np.minimum(p2, pz, out=pz)
        pz -= m1
        pz *= wg[:, None]
        table[cols, lo : lo + step] += np.add.reduceat(pz, starts, axis=0)
    return table


@dataclass
class GuhaLevel:
    parts: list[np.ndarray]
    sigma: np.ndarray | None = None


@dataclass
class GuhaHierarchy:
    """Branching-schedule partition hierarchy with per-level mappings."""

    n: int
    k: int
    delta: float
    gamma: float
    depth: int
    q: list[int]
    levels: list[GuhaLevel]

    def structure_violations(self) -> list[str]:
        """Size bound (n/|Q_i| + i) and the product bounds on |Q_i|."""
        out = []
        for i, level in enumerate(self.levels):
            count = len(level.parts)
            if i == 0:
                if count != 1:
                    out.append("level 0 must hold the whole space")
                continue
            expected = 1
            for j in range(1, i + 1):
                expected *= self.q[j - 1]
            if count != expected:
                out.append(f"level {i}: {count} parts, expected prod q_j = {expected}")
            lower = self.gamma ** (1.0 - 1.0 / 2 ** i)
            upper = math.e ** i * lower
            if not (leq(lower, count) and leq(count, upper)):
                out.append(f"level {i}: part count {count} outside "
                           f"[{lower!r}, {upper!r}]")
            bound = self.n / count + i
            for part in level.parts:
                if part.size > bound + 1e-9:
                    out.append(f"level {i}: part of size {part.size} exceeds "
                               f"n/|Q_i| + i = {bound!r}")
        return out


def build_guha_partitions(n: int, k: int, delta: float) -> GuhaHierarchy:
    if not (2 <= delta <= max(2, n / k)):
        raise MetricInputError("delta must lie in [2, n/k]")
    gamma = n / k
    if gamma <= delta:
        depth = 0
    else:
        depth = max(0, math.ceil(math.log2(math.log(gamma) / math.log(delta))))
    q = [math.ceil(gamma ** (1.0 / 2 ** i)) for i in range(1, depth + 1)]
    levels = [GuhaLevel(parts=[np.arange(n, dtype=np.int64)])]
    for i in range(1, depth + 1):
        parts = []
        for part in levels[i - 1].parts:
            # order-preserving, sizes differ by at most 1
            parts.extend(np.array_split(part, q[i - 1]))
        levels.append(GuhaLevel(parts=parts))
    return GuhaHierarchy(n=n, k=k, delta=delta, gamma=gamma, depth=depth, q=q,
                         levels=levels)


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
    k = check_k(k, space.n)
    q0 = space.oracle.query_count
    hier = build_guha_partitions(space.n, k, delta)
    n = space.n
    in_level = np.ones(n, dtype=bool)
    weights_cur = space.weights.copy()
    # composed[x] = current representative of x after the levels applied so far
    composed = np.arange(n, dtype=np.int64)
    for i in range(hier.depth, -1, -1):
        level = hier.levels[i]
        sigma_lvl = np.arange(n, dtype=np.int64)
        survivors = np.zeros(n, dtype=bool)
        next_weights = np.zeros(n)
        for part in level.parts:
            pts = part[in_level[part]]
            if pts.size == 0:
                continue
            view = space.with_weights(weights_cur)
            sol = local_search_kmedian(view, min(k, pts.size), solver_obj, universe=pts)
            sigma_lvl[pts] = sol.assignment
            np.add.at(next_weights, sol.assignment, weights_cur[pts])
            survivors[list(sol.centers)] = True
        level.sigma = sigma_lvl
        composed = sigma_lvl[composed]
        in_level = survivors
        weights_cur = next_weights
    centers = sorted(int(c) for c in np.unique(composed))
    solution = build_solution(space, centers, obj, universe=None)
    return solution, GuhaRunMetrics(space.oracle.query_count - q0, hier, composed)


@dataclass
class SparsifierAudit:
    opt_full: float
    opt_sparse: float
    composed_cost: float
    alpha: float = 0.0
    beta: float = 0.0
    bound: float = 0.0
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def audit_sparsifier(space: WeightedMetricSpace, sigma: np.ndarray, pi: dict | np.ndarray,
                     k: int, objective: Objective | str = Objective.MEDIAN,
                     opt_full: float | None = None) -> SparsifierAudit:
    """Measure the (alpha, beta) ratios of a sparsifier mapping sigma and an
    inner solution pi, then assert the composed-cost bound
    composition_factor(alpha, beta) * OPT_k, brute-forced unless given as
    `opt_full`. Brute-force sized instances only."""
    obj = as_objective(objective)
    sigma = np.asarray(sigma, dtype=np.int64)
    targets = np.unique(sigma)
    w_sparse = np.zeros(space.n)
    np.add.at(w_sparse, sigma, space.weights)

    if opt_full is None:
        opt_full, _ = opt_bruteforce(space, k, objective=obj)
    opt_sparse, _ = opt_bruteforce(space.with_weights(w_sparse), min(k, targets.size),
                                   universe=targets, candidates=targets, objective=obj)
    beta_cost = mapping_cost(space, sigma, space.all_points(), space.weights, obj)
    # pi maps every target (or, as a dict, the targets it names) to its center
    pi_assign = space.all_points()
    named = np.fromiter(pi, np.int64) if isinstance(pi, dict) else targets
    pi_assign[named] = [pi[int(y)] for y in named]
    alpha_cost = mapping_cost(space, pi_assign, targets, w_sparse, obj)
    composed = pi_assign[sigma]
    composed_cost = mapping_cost(space, composed, space.all_points(), space.weights, obj)
    audit = SparsifierAudit(opt_full, opt_sparse, composed_cost)
    if opt_full <= 0:
        if not leq(composed_cost, 0.0):
            audit.violations.append("degenerate OPT = 0 but composed cost positive")
        return audit
    if opt_sparse > 0:
        audit.alpha = alpha_cost / opt_sparse
    elif not leq(alpha_cost, 0.0):
        # a zero-cost sparsified optimum forces a zero-cost inner solution
        audit.violations.append("inner OPT = 0 but inner solution cost positive")
        return audit
    audit.beta = beta_cost / opt_full
    audit.bound = composition_factor(audit.alpha, audit.beta) * opt_full
    if not leq(composed_cost, audit.bound):
        audit.violations.append(
            f"composed cost {composed_cost!r} exceeds sparsifier bound {audit.bound!r}")
    return audit


def composition_factor(alpha: float, beta: float) -> float:
    """The sparsifier-composition lemma: an alpha-approximate solution on the
    space sparsified by a beta-approximate mapping composes to a mapping of
    cost at most (2*alpha + (1 + 2*alpha)*beta) * OPT_k."""
    return 2 * alpha + (1 + 2 * alpha) * beta


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
    for level in reversed(metrics.hierarchy.levels):
        audits.append(audit_sparsifier(space, composed, level.sigma, k, solver_obj, opt_full))
        composed = level.sigma[composed]
    return audits
