"""Restricted reverse greedy center selection.

Starting from a candidate set X, the algorithm repeatedly removes the center
whose removal causes the smallest increase in cost over the evaluation
universe, stopping once k' centers remain. Cost is measured against the whole
universe even though centers are confined to X, which is what makes the
routine usable as a restricted solver inside the hierarchical pipeline.

The state keeps, for every point, its nearest and second-nearest alive center
under the (distance, center id) order and never sorts: a removal promotes the
second nearest where the nearest was removed and finds the next one with a
masked argmin. All distances come from one |U| x |X| matrix per run, handed in
or requested once; the first second-nearest pass masks each row's nearest in
it and writes it back, so it comes back as handed in (a read-only one is
copied). One state holds a batch of B runs of the same shape and steps them in
lockstep, so a step is a fixed number of array calls whatever B is, and each
run's removals, costs and centers are bit-identical to running it alone. The
rows of all runs are kept run-major in one flat layout, with each row's run
and first slot worked out once, and a B x |X| limit array, -inf for a center
and +inf for a removed slot, that masks removed slots with one `np.maximum`; a
step changes only the rows it must and returns each run's removed slot.
`res_greedy_batch` is the only run loop and `res_greedy` its one-run call; a
candidate set no larger than k' goes through it as a zero-step run. The loop
prices costs per block of steps, one `Objective.total` over their saved
nearest distances, and maps removed slots to candidate ids once, after the
last step.
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


# Elements of d1 history priced by one `Objective.total` in res_greedy_batch:
# 32 steps of 2,048 rows
_COST_BLOCK = _SCAN_CHUNK // 4


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
        m = self.cand.shape[1]
        # the B*|U| rows of all runs, run-major: distances (the block, copied
        # only if read-only or strided), weights, run and the run's first slot
        self._rows = np.require(distances, requirements="CW").reshape(-1, m)
        self._w = self.w.reshape(-1)
        self._runs = np.arange(B)
        self._run = np.repeat(self._runs, self.universe.shape[1])
        self._slot0 = self._run * m
        # per slot, -inf while it is a center and +inf once removed: np.maximum
        # with it masks removed slots and keeps every other value, -0.0 included
        self._lim = np.full(self.cand.shape, -np.inf)
        self.size = m
        # argmin takes the first minimum and columns are id-ascending, so ties
        # go to the smaller candidate id
        self._s1 = np.argmin(self._rows, axis=1)
        self._d1 = self._rows[np.arange(self._s1.size), self._s1]
        self._s2 = self._d2 = None  # found by the first step; zero-step runs never read them

    @property
    def alive(self) -> np.ndarray:
        """B x |X|: which of each run's candidate slots are still centers."""
        return self._lim < 0

    def _refresh_second(self, rows: np.ndarray) -> None:
        """s2/d2 of `rows` after a removal: first-minimum argmin of a copy of
        the rows with s1 and the run's removed slots masked to +inf, in
        chunks of _SCAN_CHUNK elements. Distances are finite (the oracles
        reject overflowing inputs), so the minimum is +inf only with one
        center left, and then s2 is never read."""
        step = max(1, _SCAN_CHUNK // self._rows.shape[1])
        for lo in range(0, rows.size, step):
            r = rows[lo : lo + step]
            at = np.arange(r.size)
            block = self._rows[r]
            np.maximum(block, self._lim[self._run[r]], out=block)
            block[at, self._s1[r]] = np.inf
            self._s2[r] = best = block.argmin(axis=1)
            self._d2[r] = block[at, best]

    def centers(self, b: int = 0) -> list[int]:
        return self.cand[b][self.alive[b]].tolist()

    def nearest(self, b: int = 0) -> np.ndarray:
        """Id of the nearest alive center of each of run b's universe points."""
        return self.cand[b][self._s1.reshape(self.w.shape)[b]]

    def costs(self) -> np.ndarray:
        """Every run's current cost, the B of them from one `Objective.total`."""
        return self.objective.total(self.w, self._d1.reshape(self.w.shape))

    def clusters(self, b: int = 0) -> dict[int, np.ndarray]:
        """C_S(y): run b's universe points whose nearest alive center is y."""
        ids = self.nearest(b)
        return {c: self.universe[b][ids == c] for c in self.centers(b)}

    def _change_by_slot(self) -> np.ndarray:
        if self.size < 2:
            raise MetricInputError("cannot empty solution")
        if self._s2 is None:
            # before any removal, in the block itself: +inf at each s1, one
            # argmin, then d1, read from those cells, written back bit for bit
            at = np.arange(self._s1.size)
            self._rows[at, self._s1] = np.inf
            self._s2 = self._rows.argmin(axis=1)
            self._d2 = self._rows[at, self._s2]
            self._rows[at, self._s1] = self._d1
        pc = self.objective.point_cost
        # rows are run-major, so bincount sums each slot's rows in row order
        contrib = self._w * (pc(self._d2) - pc(self._d1))
        return np.bincount(self._s1 + self._slot0, weights=contrib,
                           minlength=self._lim.size).reshape(self._lim.shape)

    def removal_deltas(self, b: int = 0) -> dict[int, float]:
        """change(y) = cost(S - y) - cost(S) for every alive center y of run b."""
        change = self._change_by_slot()[b]
        return {int(self.cand[b, s]): float(change[s]) for s in np.nonzero(self.alive[b])[0]}

    def step(self) -> np.ndarray:
        """Remove each run's argmin change(y) (ties to the smallest center id);
        returns per run the removed slot, its column in `cand`. The shrunken
        solutions' costs are `costs()`. Rows whose s1 was removed take s2 as
        s1; those rows and the rows whose s2 was removed get a new s2."""
        change = self._change_by_slot()
        np.maximum(change, self._lim, out=change)
        y = change.argmin(axis=1)
        self._lim[self._runs, y] = np.inf
        self.size -= 1
        y_col = y[:, None]
        promoted = (self._s1.reshape(self.w.shape) == y_col).reshape(-1)
        np.copyto(self._s1, self._s2, where=promoted)
        np.copyto(self._d1, self._d2, where=promoted)
        promoted |= (self._s2.reshape(self.w.shape) == y_col).reshape(-1)
        self._refresh_second(promoted.nonzero()[0])
        return y


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
    state, (cert,) = res_greedy_batch(space, candidates, k_prime, objective, universe, k, distances)
    return Solution(tuple(state.centers()), state.nearest(), cert.final_cost,
                    state.objective, state.universe[0]), cert


def res_greedy_batch(space: WeightedMetricSpace, candidates, k_prime: int,
                     objective: Objective | str = Objective.MEDIAN, universe=None,
                     k: int | None = None, distances=None
                     ) -> tuple[GreedyState, list[BoundCertificate]]:
    """The one reverse-greedy loop: the runs of one GreedyState step in
    lockstep, all |X| - k' steps of them (none when |X| <= k'). Returns the
    finished state, whose run b holds that run's centers and assignment, and
    per run the certificate that run gives alone."""
    k_prime = check_k(k_prime, name="k_prime")
    state = GreedyState(space, candidates, universe=universe, objective=objective,
                        distances=distances)
    obj = state.objective
    eps = means_eps(space.n, k) if k is not None and obj is Objective.MEANS else None
    B, m = state.cand.shape
    steps = max(0, m - k_prime)
    # costs before the first step and after each; the d1 of up to `block`
    # steps wait in `hist` and are priced by one `Objective.total`
    costs = np.empty((steps + 1, B))
    costs[0] = state.costs()
    block = min(steps, max(1, _COST_BLOCK // state._d1.size))
    hist = np.empty((block, *state.w.shape))
    slots = np.empty((steps, B), dtype=np.int64)
    for i in range(steps):
        slots[i] = state.step()
        j = i % block
        hist[j] = state._d1.reshape(state.w.shape)
        if j == block - 1 or i == steps - 1:
            costs[i - j + 1 : i + 2] = obj.total(state.w, hist[: j + 1])
    # per run: its removed centers, and its costs before the first step and after each
    removed = np.take_along_axis(state.cand, slots.T, axis=1).tolist()
    costs = costs.T.tolist()
    sizes = range(m, k_prime, -1)
    return state, [
        BoundCertificate(tuple(cand), k_prime, state.universe.shape[1], obj,
                         [RemovalStep(*s) for s in zip(ys, sizes, cs, cs[1:])],
                         cs[0], cs[-1], k, eps)
        for cand, ys, cs in zip(state.cand.tolist(), removed, costs)]


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
