"""The benchmark's workloads.

Each workload makes its instances from the seed, calls one public entry
point of detkmed on an instance, and checks what comes back. The library
only ever sees the generated instance, never the seed.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from detkmed import generators
from detkmed.adversary import AdversarySession, run_against
from detkmed.harness import adversary_algorithm
from detkmed.hierarchy import hierarchical_cluster
from detkmed.metric import close, cost

# The frozen C07 query constant: Q <= 4.08 * n * k * (log2(n/k) + 2).
QUERY_CONSTANT = 4.08


@dataclass(frozen=True)
class Instance:
    n: int
    seed: int


@dataclass
class Checked:
    """What one run produced: a digest of its full output, its query count
    and solution cost, and every failed output check."""

    digest: str
    queries: int
    cost: float
    problems: list[str]


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


@dataclass(frozen=True)
class PipelineWorkload:
    """hierarchical_cluster on a generated point set. A run cycles through
    `copies` instances drawn from the seed and reports their mean cost: the
    cost of a single instance varies by about 4% from seed to seed."""

    name: str
    why: str
    make: Callable[..., object]
    n: int
    k: int
    objective: str
    copies: int

    def instances(self, seed: int, n: int | None = None) -> list[Instance]:
        seeds = np.random.default_rng(seed).integers(0, 2**31, size=self.copies)
        return [Instance(n or self.n, int(s)) for s in seeds]

    def setup(self, inst: Instance):
        return self.make(inst.n, seed=inst.seed)

    def run(self, space, inst: Instance):
        return hierarchical_cluster(space, self.k, self.objective)

    def check(self, inst: Instance, result) -> Checked:
        solution, metrics = result
        centers = tuple(int(c) for c in solution.centers)
        problems = []
        if len(set(centers)) != self.k or len(centers) != self.k:
            problems.append(f"expected {self.k} distinct centers, got {centers}")
        if centers and (min(centers) < 0 or max(centers) >= inst.n):
            problems.append("a center is out of range")
        # recompute on a fresh space so the check shares no state with the run
        fresh = cost(self.setup(inst), centers, objective=self.objective)
        if not close(fresh, solution.cost):
            problems.append(f"cost {solution.cost!r} != recomputed {fresh!r}")
        bound = QUERY_CONSTANT * inst.n * self.k * (math.log2(inst.n / self.k) + 2)
        if metrics.queries > bound:
            problems.append(f"{metrics.queries} queries exceed the C07 bound {bound:.0f}")
        digest = _sha(repr((centers, float(solution.cost).hex(), metrics.queries)).encode())
        return Checked(digest, metrics.queries, float(solution.cost), problems)

    def result_layers(self, result) -> dict[str, float]:
        return {}

    def count_problems(self, result, totals, layers: dict[str, float]) -> list[str]:
        queries = result[1].queries
        if layers["metric.queries"] != queries:
            return [f"traced metric.queries {layers['metric.queries']} != {queries}"]
        return []


@dataclass(frozen=True)
class AdversaryWorkload:
    """run_against the adaptive adversary, including finalize and the audit.
    The adversary has no random input, so the seed picks `copies` distinct
    values of n from [n, n + 16) instead, and a run cycles through them."""

    name: str
    why: str
    n: int
    k: int
    delta: float
    objective: str
    copies: int

    def instances(self, seed: int, n: int | None = None) -> list[Instance]:
        offsets = np.random.default_rng(seed).choice(16, size=self.copies, replace=False)
        return [Instance((n or self.n) + int(o), seed) for o in offsets]

    def setup(self, inst: Instance):
        # the construction run_against starts with; it takes no other input
        AdversarySession(inst.n, self.k, self.delta, self.objective)

    def run(self, _, inst: Instance):
        return run_against(adversary_algorithm("hierarchical"), inst.n, self.k,
                           self.delta, self.objective)

    def check(self, inst: Instance, result) -> Checked:
        audit = result.audit
        problems = [f"audit: {v}" for v in audit.violations[:5]]
        if audit.r < 1:
            problems.append(f"trivial regime: r = {audit.r}")
        qx, qy, qa = result.session.transcript()
        digest = _sha(qx.tobytes(), qy.tobytes(), qa.tobytes())
        return Checked(digest, audit.algo_queries, float(audit.solution_cost), problems)

    def result_layers(self, result) -> dict[str, float]:
        session = result.session
        qx, qy, _ = session.transcript()
        keys = np.minimum(qx, qy) * session.n + np.maximum(qx, qy)
        return {
            "adversary.answers": qx.size,
            "adversary.repeat_answer_ratio": 1.0 - np.unique(keys).size / max(1, qx.size),
            "adversary.edges": session.edge_count(),
            "adversary.closed_nodes": session.closed_points(),
        }

    def count_problems(self, result, totals, layers: dict[str, float]) -> list[str]:
        audit = result.audit
        problems = []
        calls = totals["adversary.answer"]["calls"]
        if calls != audit.algo_queries:
            problems.append(f"answer_query calls {calls} != algo_queries {audit.algo_queries}")
        if layers["adversary.answers"] != audit.algo_queries + audit.artificial_queries:
            problems.append(f"adversary.answers {layers['adversary.answers']} != "
                            f"{audit.algo_queries} + {audit.artificial_queries}")
        return problems


WORKLOADS = {w.name: w for w in (
    PipelineWorkload(
        name="pipeline-large-k",
        why="Array and memory bound: 256 candidates per node, an n x 4k footprint "
            "and the means objective; the only workload where Phase III local "
            "search is heavy.",
        make=functools.partial(generators.clustered_points, clusters=64,
                               spread=0.02, norm="l2"),
        n=2048, k=64, objective="means", copies=16),
    AdversaryWorkload(
        name="adversary-median",
        why="Every query is a Python call into the adaptive adversary, then "
            "finalize and the consistency audit; query-count and adversary-engine "
            "changes pay most here.",
        n=1024, k=2, delta=1, objective="median", copies=4),
)}
