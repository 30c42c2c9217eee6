"""Deterministic single-swap local search (the constant-factor solver that
both hierarchical pipelines use and the local-search baseline) and the
sparsifier-composition audit. The branching hierarchical baseline lives in
`hierarchy`, next to the partition format it shares."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metric import (
    _SCAN_CHUNK,
    Objective,
    Solution,
    WeightedMetricSpace,
    _index_array,
    _universe,
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
    with the exact per-swap `Objective.total`, in scan order, with a strict `<`.
    The chosen swap, centers, cost and assignment are therefore exactly those
    of an exhaustive per-swap scan, and so are the oracle requests: U x
    centers once, U x non-centers once per iteration, and U x centers for the
    final solution.
    """
    obj = Objective(objective)
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
        # d2 with each row's nearest masked in D itself, then d1 written back
        D[rows, nearest_col] = np.inf
        d2 = D.min(axis=1)
        D[rows, nearest_col] = d1
        outside = U[~is_center]
        Dz = space.pairwise(U, outside)
        table = _swap_table(obj, w, d1, d2, nearest_col, k, Dz)
        # The table and the exact total sum |U| nonnegative terms, so in any
        # order each is within about (|U| + 4) * eps / 2 of the true total, plus
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
        sel_col, sel = -1, None
        recheck_cols, recheck_zis = np.nonzero(~(table > limit))
        for col, zi in zip(recheck_cols.tolist(), recheck_zis.tolist()):
            if col != sel_col:
                sel_col = col
                sel = np.where(nearest_col == col, d2, d1)
            total = obj.total(w, np.minimum(sel, Dz[:, zi]))
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
    w_x * (min(p2, PZ) - M1)[x, z], with keep = w @ M1. The sums are one
    bincount keyed by (nearest column, candidate), which adds each bin's
    points in row order.
    """
    p1 = obj.point_cost(d1)[:, None]
    p2 = obj.point_cost(d2)[:, None]
    table = np.empty((k, Dz.shape[1]))
    step = min(Dz.shape[1], max(1, _SCAN_CHUNK // w.size))
    key = (nearest_col * step)[:, None] + np.arange(step)
    for lo in range(0, Dz.shape[1], step):
        pz = obj.point_cost(Dz[:, lo : lo + step])
        m1 = np.minimum(p1, pz)
        moved = np.minimum(p2, pz)  # in place from here: for median pz is a view of Dz
        moved -= m1
        moved *= w[:, None]
        z = pz.shape[1]
        sums = np.bincount(key[:, :z].ravel(), moved.ravel(), k * step).reshape(k, step)
        table[:, lo : lo + z] = w @ m1 + sums[:, :z]
    return table


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
    obj = Objective(objective)
    sigma = _index_array(sigma, space.n, "sigma")
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

