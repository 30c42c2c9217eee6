"""Restricted reverse greedy center selection.

Starting from a candidate set X, the algorithm repeatedly removes the center
whose removal causes the smallest increase in cost over the evaluation
universe, stopping once k' centers remain. Cost is measured against the whole
universe even though centers are confined to X, which is what makes the
routine usable as a restricted solver inside the hierarchical pipeline.

The state keeps, for every point, its nearest and second-nearest alive
center under the (distance, center id) order and never sorts: a removal
promotes the second nearest where the nearest was removed and finds the next
one with a masked argmin. All distances come from one |U| x |X| matrix per
run, handed in or requested once. One state holds a batch of B runs of the
same shape and steps them in lockstep, so a step is a fixed number of array
calls whatever B is, and each run's removals, costs and centers are
bit-identical to running it alone. `res_greedy_batch` is the only run loop
and `res_greedy` its one-run call; a candidate set no larger than k' goes
through it as a zero-step run.
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
    _universe,
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
        return cls(**{**d, "candidates": tuple(d["candidates"]),
                      "objective": Objective(d["objective"]),
                      "steps": [RemovalStep(*row) for row in d["steps"]]})


class GreedyState:
    """B reverse-greedy runs of one shape, stepped in lockstep. Run b reads
    the |U| x |X| block distances[b] (rows in universe[b]'s order,
    candidates[b] ascending) and keeps per universe row the slots s1, s2 of
    its nearest and second-nearest alive candidate under the (distance,
    candidate id) order, and their distances d1, d2. One run passes 1-D ids
    and its 2-D block, requested when not given; B runs pass B x |U| and
    B x |X| ids with their B x |U| x |X| block.
    """

    def __init__(self, space: WeightedMetricSpace, candidates, universe=None,
                 objective: Objective | str = Objective.MEDIAN, distances=None):
        self.objective = _greedy_objective(as_objective(objective))
        U = _universe(space, universe, self.objective)
        cand = _index_array(candidates, space.n, "candidates")
        if distances is None:
            cand = np.unique(cand)
            distances = space.pairwise(U, cand)
        B = distances.shape[0] if distances.ndim == 3 else 1
        if distances.shape[-2:] != (U.size / B, cand.size / B) \
                or not (np.diff(cand.reshape(B, -1)) > 0).all():
            raise MetricInputError("distances must be the |U| x |X| block with "
                                   "candidates ascending and distinct")
        self.universe, self.cand = U.reshape(B, -1), cand.reshape(B, -1)
        self.w = space.weights[self.universe]
        self._D = np.ascontiguousarray(distances).reshape(B, *distances.shape[-2:])
        self.alive = np.ones(self.cand.shape, dtype=bool)
        self.size = self.cand.shape[1]
        self._runs = np.arange(B)
        # argmin takes the first minimum and columns are id-ascending, so ties
        # go to the smaller candidate id
        self._s1 = np.argmin(self._D, axis=2)
        self._d1 = np.take_along_axis(self._D, self._s1[..., None], axis=2)[..., 0]
        self._s2 = self._d2 = None  # found by the first step; zero-step runs never read them

    def _refresh_second(self, flat: np.ndarray) -> None:
        """s2/d2 of the rows `flat` of the run-major B*|U| rows: first-minimum
        argmin with s1 and the run's dead slots masked to +inf, in chunks of
        _SCAN_CHUNK elements. Distances are finite (the oracles reject
        overflowing inputs), so the minimum is +inf only with one center
        left, and then s2 is never read."""
        B, n, m = self._D.shape
        D, s1 = self._D.reshape(B * n, m), self._s1.reshape(-1)
        s2, d2 = self._s2.reshape(-1), self._d2.reshape(-1)
        step = max(1, _SCAN_CHUNK // m)
        for lo in range(0, flat.size, step):
            r = flat[lo : lo + step]
            at = np.arange(r.size)
            block = D[r]
            block[~self.alive[r // n]] = np.inf
            block[at, s1[r]] = np.inf
            s2[r] = best = np.argmin(block, axis=1)
            d2[r] = block[at, best]

    def centers(self, b: int = 0) -> list[int]:
        return self.cand[b][self.alive[b]].tolist()

    def nearest(self, b: int = 0) -> np.ndarray:
        """Id of the nearest alive center of each of run b's universe points."""
        return self.cand[b][self._s1[b]]

    def current_cost(self, b: int = 0) -> float:
        return self.objective.total(self.w[b], self._d1[b])

    def clusters(self, b: int = 0) -> dict[int, np.ndarray]:
        """C_S(y): run b's universe points whose nearest alive center is y."""
        ids = self.nearest(b)
        return {c: self.universe[b][ids == c] for c in self.centers(b)}

    def neighbor_list(self, x_row: int, b: int = 0) -> list[tuple[int, float]]:
        """Run b's alive candidates for universe row x, sorted as the live list L_x."""
        return sorted(((int(self.cand[b, s]), float(self._D[b, x_row, s]))
                       for s in np.nonzero(self.alive[b])[0]),
                      key=lambda pair: (pair[1], pair[0]))

    def _change_by_slot(self) -> np.ndarray:
        if self.size < 2:
            raise MetricInputError("cannot empty solution")
        if self._s2 is None:
            self._s2, self._d2 = np.empty_like(self._s1), np.empty_like(self._d1)
            self._refresh_second(np.arange(self._s1.size))
        pc = self.objective.point_cost
        B, m = self.cand.shape
        # flattening is run-major, so bincount sums each slot's rows in row order
        slots = (self._s1 + self._runs[:, None] * m).ravel()
        contrib = (self.w * (pc(self._d2) - pc(self._d1))).ravel()
        return np.bincount(slots, weights=contrib, minlength=B * m).reshape(B, m)

    def removal_deltas(self, b: int = 0) -> dict[int, float]:
        """change(y) = cost(S - y) - cost(S) for every alive center y of run b."""
        change = self._change_by_slot()[b]
        return {int(self.cand[b, s]): float(change[s]) for s in np.nonzero(self.alive[b])[0]}

    def step(self) -> tuple[np.ndarray, np.ndarray]:
        """Remove each run's argmin change(y) (ties to the smallest center id);
        returns per run the removed center and the shrunken solution's cost."""
        y_slot = np.argmin(np.where(self.alive, self._change_by_slot(), np.inf), axis=1)
        self.alive[self._runs, y_slot] = False
        self.size -= 1
        promoted = self._s1 == y_slot[:, None]
        self._s1[promoted] = self._s2[promoted]
        self._d1[promoted] = self._d2[promoted]
        self._refresh_second(np.flatnonzero(promoted | (self._s2 == y_slot[:, None])))
        return self.cand[self._runs, y_slot], np.array([self.current_cost(b) for b in self._runs])


def res_greedy(space: WeightedMetricSpace, candidates, k_prime: int,
               objective: Objective | str = Objective.MEDIAN, universe=None,
               k: int | None = None, distances=None) -> tuple[Solution, BoundCertificate]:
    """Res-Greedy_{k'}: reverse greedy from S = X down to k' centers, the
    one-run call of `res_greedy_batch`.

    Returns the solution (assignment over the universe) and the removal-trace
    certificate. When |X| <= k' the run takes no step: X comes back unchanged
    with an empty trace, and its certificate still carries the cost of X.
    Given k, a means certificate records eps = means_eps(space.n, k).
    `distances` is passed to GreedyState: given, the run makes no query.
    """
    return res_greedy_batch(space, candidates, k_prime, objective, universe, k, distances)[0]


def res_greedy_batch(space: WeightedMetricSpace, candidates, k_prime: int,
                     objective: Objective | str = Objective.MEDIAN, universe=None,
                     k: int | None = None, distances=None
                     ) -> list[tuple[Solution, BoundCertificate]]:
    """The one reverse-greedy loop: the runs of one GreedyState step in
    lockstep, all |X| - k' steps of them (none when |X| <= k'). Returns per
    run the (solution, certificate) pair that run gives alone."""
    k_prime = check_k(k_prime, name="k_prime")
    state = GreedyState(space, candidates, universe=universe, objective=objective,
                        distances=distances)
    obj = state.objective
    eps = means_eps(space.n, k) if k is not None and obj is Objective.MEANS else None
    initial = current = [state.current_cost(b) for b in range(len(state.cand))]
    traces: list[list[RemovalStep]] = [[] for _ in current]
    while state.size > k_prime:
        size_before = state.size
        removed, after = state.step()
        after = after.tolist()
        for trace, y, before, c in zip(traces, removed.tolist(), current, after):
            trace.append(RemovalStep(y, size_before, before, c))
        current = after
    return [(Solution(tuple(state.centers(b)), state.nearest(b), current[b], obj,
                      state.universe[b]),
             BoundCertificate(tuple(state.cand[b].tolist()), k_prime, state.universe.shape[1],
                              obj, trace, initial[b], current[b], k, eps))
            for b, trace in enumerate(traces)]


def naive_reverse_greedy(space: WeightedMetricSpace, candidates, k_prime: int,
                         objective: Objective | str = Objective.MEDIAN,
                         universe=None):
    """Quadratic reference: recomputes cost(S - y) from the distance matrix for
    every alive y at every step. Shares only the tie rule with the fast path."""
    obj = _greedy_objective(as_objective(objective))
    k_prime = check_k(k_prime, name="k_prime")
    U = _universe(space, universe, obj)
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
