"""Run records, algorithm registry, and the bench sweep driver shared by the
CLI and the test suite."""

from __future__ import annotations

import csv
import time
from dataclasses import asdict, dataclass

import numpy as np

from .baselines import guha_hierarchical, local_search_kmedian
from .generators import make_instance
from .greedy import BoundCertificate, res_greedy
from .hierarchy import hierarchical_cluster
from .metric import (
    EnumerationBudgetError,
    MetricInputError,
    Objective,
    Solution,
    WeightedMetricSpace,
    as_objective,
    check_k,
    opt_bruteforce,
)

CSV_COLUMNS = ["algorithm", "instance", "n", "k", "delta", "objective", "cost",
               "ratio", "queries", "wall_millis"]


@dataclass
class RunRecord:
    algorithm: str
    instance: str
    n: int
    k: int
    delta: float | None
    objective: str
    cost: float
    ratio: float | None
    queries: int
    wall_millis: float

    def to_row(self) -> list:
        return [getattr(self, c) if getattr(self, c) is not None else ""
                for c in CSV_COLUMNS]

    def to_json_dict(self) -> dict:
        return asdict(self)


def _reverse_greedy(space, k, obj, delta):
    k = check_k(k, space.n)
    return res_greedy(space, space.all_points(), k, obj, k=k)


# name -> (space, k, objective, delta) -> (Solution, removal certificate or
# None); only guha reads delta
ALGORITHMS = {
    "hierarchical": lambda space, k, obj, delta: (hierarchical_cluster(space, k, obj)[0], None),
    "guha": lambda space, k, obj, delta: (guha_hierarchical(space, k, delta, obj)[0], None),
    "reverse-greedy": _reverse_greedy,
    "local-search": lambda space, k, obj, delta: (local_search_kmedian(space, k, obj), None),
}
GUHA_DELTA = 2.0


def _algorithm(name: str):
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise MetricInputError(f"unknown algorithm {name!r}") from None


def run_algorithm(name: str, space: WeightedMetricSpace, k: int,
                  objective: Objective | str = Objective.MEDIAN,
                  delta: float | None = None, instance: str = "instance"
                  ) -> tuple[Solution, RunRecord, BoundCertificate | None]:
    """Run one registered algorithm on a fresh counter window. The removal
    certificate comes back for reverse greedy, None otherwise; guha runs at
    GUHA_DELTA unless delta is given. Every algorithm rejects an input whose
    cost bound overflows float64 before its first query."""
    run = _algorithm(name)
    obj = as_objective(objective)
    delta = GUHA_DELTA if delta is None else delta
    q0 = space.oracle.query_count
    t0 = time.perf_counter()
    solution, cert = run(space, k, obj, delta)
    wall = (time.perf_counter() - t0) * 1000.0
    record = RunRecord(
        algorithm=name, instance=instance, n=space.n, k=k,
        delta=delta if name == "guha" else None,
        objective=obj.value, cost=solution.cost, ratio=None,
        queries=space.oracle.query_count - q0, wall_millis=wall)
    return solution, record, cert


def attach_ratio(record: RunRecord, space: WeightedMetricSpace, k: int) -> RunRecord:
    """Fill in the exact ratio when the instance is brute-forceable."""
    try:
        opt, _ = opt_bruteforce(space, k, objective=record.objective, budget=2_000_000)
    except EnumerationBudgetError:
        return record
    if opt > 0:
        record.ratio = record.cost / opt
    elif record.cost == 0:
        record.ratio = 1.0
    return record


@dataclass
class SweepSpec:
    generator: str = "uniform-points"
    params: dict = None
    ns: tuple[int, ...] = ()
    ks: tuple[int, ...] = ()
    algorithms: tuple[str, ...] = ()
    deltas: tuple[float, ...] = (GUHA_DELTA,)
    objective: str = "median"
    seed: int = 0
    with_ratio: bool = False


def bench_sweep(spec: SweepSpec) -> list[RunRecord]:
    """One record per (n, k, algorithm[, delta]) cell, deterministic given the
    seed. Each cell owns a fresh space and counter."""
    records: list[RunRecord] = []
    params = spec.params or {}
    for n in spec.ns:
        for k in spec.ks:
            if k > n:
                continue
            for algo in spec.algorithms:
                deltas = spec.deltas if algo == "guha" else (None,)
                for delta in deltas:
                    if algo == "guha" and delta is not None and delta > max(2, n / k):
                        continue
                    space = make_instance(spec.generator, n, seed=spec.seed, **params)
                    instance = f"{spec.generator}-n{n}-seed{spec.seed}"
                    _, rec, _ = run_algorithm(algo, space, k, spec.objective,
                                              delta=delta, instance=instance)
                    if spec.with_ratio:
                        rec = attach_ratio(rec, space, k)
                    records.append(rec)
    return records


def write_records_csv(path, records: list[RunRecord]) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(CSV_COLUMNS)
        for rec in records:
            out.writerow(rec.to_row())


def adversary_algorithm(name: str):
    """A registered algorithm in the (space, k, objective) -> Solution shape
    the adversary harness drives; guha runs at GUHA_DELTA."""
    run = _algorithm(name)
    return lambda space, k, objective: run(space, k, objective, GUHA_DELTA)[0]


def adversary_report_dict(result) -> dict:
    audit = result.audit
    qx, qy, qa = result.session.transcript()
    return {
        "n": audit.n,
        "k": audit.k,
        "delta": audit.delta,
        "objective": audit.objective.value,
        "M": audit.M,
        "log_M_n": audit.log_m_n,
        "r": audit.r,
        "trivial_regime": audit.trivial_regime,
        "passed": audit.passed,
        "violations": audit.violations,
        "solution": list(result.solution.centers),
        "final_centers": result.session.final_centers,
        "solution_cost": audit.solution_cost,
        "solution_bound": audit.solution_bound,
        "witness": list(audit.witness),
        "witness_cost": audit.witness_cost,
        "witness_bound": audit.witness_bound,
        "closed_nodes": audit.closed_nodes,
        "closed_bound": audit.closed_bound,
        "ratio": audit.ratio,
        "ratio_bound": audit.ratio_bound,
        "algo_queries": audit.algo_queries,
        "artificial_queries": audit.artificial_queries,
        "nominal_budget": audit.nominal_budget,
        "within_budget": audit.within_budget,
        "edges_total": audit.edges_total,
        "neighbor_profile": {str(z): prof for z, prof in audit.neighbor_profile.items()},
        "queries": [[int(a), int(b), float(c)] for a, b, c in zip(qx, qy, qa)],
    }


def replay_adversary(report: dict) -> tuple[bool, list[str]]:
    """Re-drive a logged session and confirm every answer and the final
    consistency audit reproduce exactly."""
    from .adversary import AdversarySession, audit_session

    session = AdversarySession(report["n"], report["k"], report["delta"],
                               Objective(report["objective"]))
    problems: list[str] = []
    queries = report["queries"]
    n_algo = report["algo_queries"]
    for i, (x, y, ans) in enumerate(queries[:n_algo]):
        got = session.answer_query(int(x), int(y))
        if got != ans:
            problems.append(f"query {i} ({x},{y}): replay answered {got!r}, log says {ans!r}")
            if len(problems) > 10:
                return False, problems
    metric = session.finalize(report["solution"])
    audit = audit_session(session, metric)
    qx, qy, qa = session.transcript()
    logged = np.asarray([row[2] for row in queries])
    if len(qa) != len(logged) or not np.array_equal(np.asarray(qa), logged):
        problems.append("replayed transcript differs from the logged one")
    problems.extend(audit.violations)
    return not problems, problems
