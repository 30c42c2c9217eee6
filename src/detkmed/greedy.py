"""Restricted reverse greedy center selection.

Starting from a candidate set X, the algorithm repeatedly removes the center
whose removal causes the smallest increase in cost over the evaluation
universe, stopping once k' centers remain. Cost is measured against the whole
universe even though centers are confined to X, which is what makes the
routine usable as a restricted solver inside the hierarchical pipeline.

The state keeps, for every point, its nearest and second-nearest alive
center under the (distance, center id) order and never sorts: a removal
promotes the second nearest where the nearest was removed and finds the next
one with a masked argmin, so each iteration is O(|U|) array work plus O(|X|)
per affected row. All distances come from one |U| x |X| matrix fixed at
initialization: the caller may hand it in (the pipeline assembles each
node's matrix from its children's blocks), otherwise it is requested once.
`res_greedy` is the only run loop. A candidate set already no larger than k'
goes through it as a zero-step run, so a whole-space call requests
|U| x |X| once and nothing more.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .metric import (
    _SCAN_CHUNK,
    MetricInputError,
    Objective,
    Solution,
    WeightedMetricSpace,
    _index_array,
    as_objective,
    check_k,
    leq,
)


def means_eps(n: int, k: int) -> float:
    """Epsilon of the means-mode removal bounds: 1/(1 + log2(n/k))."""
    return 1.0 / (1.0 + math.log2(max(1.0, n / k)))


def _greedy_objective(obj: Objective) -> Objective:
    if obj is Objective.NORMALIZED_MEANS:
        raise MetricInputError("reverse greedy supports median and means objectives")
    return obj


@dataclass
class RemovalStep:
    removed: int
    size_before: int
    cost_before: float
    cost_after: float


@dataclass
class BoundCertificate:
    """Removal trace of one reverse-greedy run plus the context audits need."""

    candidates: tuple[int, ...]
    k_prime: int
    universe_size: int
    objective: Objective
    steps: list[RemovalStep]
    initial_cost: float | None
    final_cost: float | None
    k: int | None = None
    eps: float | None = None

    def dumps(self) -> str:
        return json.dumps({
            "candidates": list(self.candidates),
            "k_prime": self.k_prime,
            "universe_size": self.universe_size,
            "objective": self.objective.value,
            "k": self.k,
            "eps": self.eps,
            "initial_cost": self.initial_cost,
            "final_cost": self.final_cost,
            "steps": [[s.removed, s.size_before, s.cost_before, s.cost_after]
                      for s in self.steps],
        })

    @classmethod
    def loads(cls, text: str) -> "BoundCertificate":
        d = json.loads(text)
        return cls(
            candidates=tuple(d["candidates"]),
            k_prime=d["k_prime"],
            universe_size=d["universe_size"],
            objective=Objective(d["objective"]),
            steps=[RemovalStep(*row) for row in d["steps"]],
            initial_cost=d["initial_cost"],
            final_cost=d["final_cost"],
            k=d.get("k"),
            eps=d.get("eps"),
        )


class GreedyState:
    """Live reverse-greedy structures over (universe, candidates).

    Per universe row: the slots s1, s2 of the nearest and second-nearest
    alive candidate under the (distance, candidate id) order, and their
    distances d1, d2. The clusters, the cost and the exact removal deltas
    change(y) = cost(S-y) - cost(S) are read from these. `distances`, when
    given, is the |U| x |X| matrix (rows in universe order, candidates
    ascending) and no query is made; otherwise that matrix is requested.
    """

    def __init__(self, space: WeightedMetricSpace, candidates, universe=None,
                 objective: Objective | str = Objective.MEDIAN, distances=None):
        self.objective = _greedy_objective(as_objective(objective))
        U = space.all_points() if universe is None else _index_array(universe, space.n, "universe")
        cand = _index_array(candidates, space.n, "candidates")
        if distances is None:
            cand = np.unique(cand)
            distances = space.pairwise(U, cand)
        elif distances.shape != (U.size, cand.size) or not (cand[1:] > cand[:-1]).all():
            raise MetricInputError("distances must be the |U| x |X| block with "
                                   "candidates ascending and distinct")
        self.universe = U
        self.cand = cand
        self.w = space.weights[U]
        self._D = distances
        self.alive = np.ones(cand.size, dtype=bool)
        self._alive_count = cand.size
        # argmin takes the first minimum and columns are id-ascending, so ties
        # go to the smaller candidate id
        self._s1 = np.argmin(distances, axis=1)
        self._d1 = distances[np.arange(U.size), self._s1]
        self._s2 = self._d2 = None  # found by the first step; zero-step runs never read them

    def _refresh_second(self, rows: np.ndarray) -> None:
        """s2/d2 of `rows`: first-minimum argmin with s1 and dead slots masked
        to +inf, in chunks of _SCAN_CHUNK elements. Every distance is finite
        (the oracles reject inputs whose distances overflow), so the minimum
        is +inf only once a single center is left, and then s2 is never read."""
        dead = ~self.alive
        step = max(1, _SCAN_CHUNK // self.cand.size)
        for lo in range(0, rows.size, step):
            r = rows[lo : lo + step]
            at = np.arange(r.size)
            block = self._D[r]
            block[:, dead] = np.inf
            block[at, self._s1[r]] = np.inf
            s2 = np.argmin(block, axis=1)
            self._s2[r] = s2
            self._d2[r] = block[at, s2]

    @property
    def size(self) -> int:
        return self._alive_count

    def centers(self) -> list[int]:
        return [int(c) for c in self.cand[self.alive]]

    def nearest(self) -> tuple[np.ndarray, np.ndarray]:
        """(center id, distance) of each universe point's nearest alive center."""
        return self.cand[self._s1], self._d1.copy()

    def current_cost(self) -> float:
        return self.objective.total(self.w, self._d1)

    def clusters(self) -> dict[int, np.ndarray]:
        """C_S(y): universe points whose nearest alive center is y."""
        ids, _ = self.nearest()
        out: dict[int, np.ndarray] = {}
        for c in self.centers():
            out[c] = self.universe[ids == c]
        return out

    def neighbor_list(self, x_row: int) -> list[tuple[int, float]]:
        """Alive candidates for universe row x, sorted as the live list L_x."""
        return sorted(((int(self.cand[s]), float(self._D[x_row, s]))
                       for s in np.nonzero(self.alive)[0]),
                      key=lambda pair: (pair[1], pair[0]))

    def _change_by_slot(self) -> np.ndarray:
        if self._alive_count < 2:
            raise MetricInputError("cannot empty solution")
        if self._s2 is None:
            self._s2, self._d2 = np.empty_like(self._s1), np.empty_like(self._d1)
            self._refresh_second(np.arange(self.universe.size))
        pc = self.objective.point_cost
        # bincount sums each slot's rows in row order
        return np.bincount(self._s1, weights=self.w * (pc(self._d2) - pc(self._d1)),
                           minlength=self.cand.size)

    def removal_deltas(self) -> dict[int, float]:
        """change(y) = cost(S - y) - cost(S) for every alive center y."""
        change = self._change_by_slot()
        return {int(self.cand[s]): float(change[s]) for s in np.nonzero(self.alive)[0]}

    def step(self) -> tuple[int, float]:
        """Remove argmin change(y) (ties to the smallest center id); returns
        the removed center and the cost of the shrunken solution."""
        change = self._change_by_slot()
        masked = np.where(self.alive, change, np.inf)
        y_slot = int(np.argmin(masked))
        self.alive[y_slot] = False
        self._alive_count -= 1
        promoted = self._s1 == y_slot
        self._s1[promoted] = self._s2[promoted]
        self._d1[promoted] = self._d2[promoted]
        self._refresh_second(np.nonzero(promoted | (self._s2 == y_slot))[0])
        return int(self.cand[y_slot]), self.current_cost()


def res_greedy(space: WeightedMetricSpace, candidates, k_prime: int,
               objective: Objective | str = Objective.MEDIAN, universe=None,
               k: int | None = None, distances=None) -> tuple[Solution, BoundCertificate]:
    """Res-Greedy_{k'}: reverse greedy from S = X down to k' centers.

    Returns the solution (assignment over the universe) and the removal-trace
    certificate. When |X| <= k' the run takes no step: X comes back unchanged
    with an empty trace, and its certificate still carries the cost of X.
    Given k, a means certificate records eps = means_eps(space.n, k).
    `distances` is passed to GreedyState: given, the run makes no query.
    """
    k_prime = check_k(k_prime, name="k_prime")
    state = GreedyState(space, candidates, universe=universe, objective=objective,
                        distances=distances)
    eps = means_eps(space.n, k) if k is not None and state.objective is Objective.MEANS else None
    current = state.current_cost()
    cert = BoundCertificate(candidates=tuple(state.cand.tolist()), k_prime=k_prime,
                            universe_size=state.universe.size, objective=state.objective,
                            steps=[], initial_cost=current, final_cost=None, k=k, eps=eps)
    while state.size > k_prime:
        size_before = state.size
        removed, after = state.step()
        cert.steps.append(RemovalStep(removed, size_before, current, after))
        current = after
    cert.final_cost = current
    ids, _ = state.nearest()
    return Solution(tuple(state.centers()), ids, current, state.objective, state.universe), cert


def naive_reverse_greedy(space: WeightedMetricSpace, candidates, k_prime: int,
                         objective: Objective | str = Objective.MEDIAN,
                         universe=None):
    """Quadratic reference: recomputes cost(S - y) from the distance matrix for
    every alive y at every step. Shares only the tie rule with the fast path."""
    obj = _greedy_objective(as_objective(objective))
    k_prime = check_k(k_prime, name="k_prime")
    U = space.all_points() if universe is None else _index_array(universe, space.n, "universe")
    cand = np.unique(_index_array(candidates, space.n, "candidates"))
    w = space.weights[U]
    if cand.size <= k_prime:
        return [int(c) for c in cand], []
    D = space.pairwise(U, cand)

    alive = list(range(cand.size))
    trace = []
    while len(alive) > k_prime:
        base = obj.point_cost(D[:, alive].min(axis=1))
        before = obj.finalize(float(np.dot(w, base)))
        best_slot = -1
        best_delta = np.inf
        best_after = np.inf
        for slot in alive:
            rest = [s for s in alive if s != slot]
            shifted = obj.point_cost(D[:, rest].min(axis=1))
            # per-point differences keep mathematically tied removals tied:
            # points that do not move contribute exact zeros
            delta = float(np.sum(w * (shifted - base)))
            if delta < best_delta:
                best_delta = delta
                best_slot = slot
                best_after = obj.finalize(float(np.dot(w, shifted)))
        alive.remove(best_slot)
        trace.append(RemovalStep(int(cand[best_slot]), len(alive) + 1, before, best_after))
    return [int(cand[s]) for s in alive], trace


@dataclass
class CertificateAudit:
    steps_checked: int
    aggregate_bound: float | None
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def audit_certificate(cert: BoundCertificate, opt_ref: float,
                      k: int | None = None, eps: float | None = None) -> CertificateAudit:
    """Check the per-step and telescoped removal bounds against an exact OPT_k.

    Median steps obey ``cost(S_{i-1}) - cost(S_i) <= 2/(i-k) * OPT`` for every
    step with i > k, and the final cost obeys the telescoped aggregate. Means
    steps with i >= 2k+1 obey the (1 + 3eps/k, (4+2/eps)/k) bound; earlier
    means steps are checked against the same inequality with divisor i-k.
    """
    if opt_ref is None:
        raise MetricInputError("audit requires an exact OPT reference")
    k = cert.k if k is None else k
    if k is None:
        raise MetricInputError("audit requires the target k")
    report = CertificateAudit(steps_checked=len(cert.steps), aggregate_bound=None)
    if not cert.steps:
        report.aggregate_bound = 0.0
        return report
    obj = cert.objective
    if obj is Objective.MEANS:
        eps = cert.eps if eps is None else eps
        if eps is None:
            raise MetricInputError("means-mode audit requires eps")
    agg = 0.0
    for s in cert.steps:
        i = s.size_before
        if not leq(s.cost_before, s.cost_after):
            report.violations.append(
                f"cost decreased when removing {s.removed} at size {i}")
        if i <= k:
            continue
        if obj is Objective.MEDIAN:
            bound = 2.0 / (i - k) * opt_ref
            agg += bound
            if not leq(s.cost_after - s.cost_before, bound):
                report.violations.append(
                    f"step at size {i}: increase {s.cost_after - s.cost_before!r} "
                    f"exceeds 2/(i-k)*OPT = {bound!r}")
        else:
            divisor = k if i >= 2 * k + 1 else (i - k)
            rhs = (1.0 + 3.0 * eps / divisor) * s.cost_before \
                + (4.0 + 2.0 / eps) / divisor * opt_ref
            if not leq(s.cost_after, rhs):
                report.violations.append(
                    f"means step at size {i}: cost {s.cost_after!r} exceeds {rhs!r}")
    if obj is Objective.MEDIAN and cert.k_prime >= k and cert.initial_cost is not None:
        report.aggregate_bound = cert.initial_cost + agg
        if not leq(cert.final_cost, report.aggregate_bound):
            report.violations.append(
                f"aggregate: final cost {cert.final_cost!r} exceeds telescoped "
                f"bound {report.aggregate_bound!r}")
    return report
