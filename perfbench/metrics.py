"""Metric definitions. BENCHMARK.json lists the same names, units and
directions; run.py refuses to report if the two disagree.

Each per-layer metric names the end-to-end metric it should move and the
workloads where it should move it, so a change can cite them by name.
"""

from __future__ import annotations

PIPELINE = ("pipeline-large-k",)
ADVERSARY = ("adversary-median",)
ALL = PIPELINE + ADVERSARY

# name, unit, better; the bounds live in BENCHMARK.json
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("queries", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("solution_cost", "cost", "lower"),
)

# name, unit, better, end-to-end metrics it should move, workloads
PER_LAYER = (
    ("greedy.steps", "count", "lower", ("wall_s",), PIPELINE),
    ("greedy.step_s", "s", "lower", ("wall_s",), PIPELINE),
    ("greedy.states", "count", "lower", ("wall_s", "peak_rss_mb"), PIPELINE),
    ("greedy.init_s", "s", "lower", ("wall_s", "peak_rss_mb"), PIPELINE),
    ("greedy.init_self_s", "s", "lower", ("wall_s", "peak_rss_mb"), PIPELINE),
    ("metric.pairwise_calls", "count", "lower", ("wall_s",), ALL),
    ("metric.pairwise_s", "s", "lower", ("wall_s",), ALL),
    ("metric.pairwise_self_s", "s", "lower", ("wall_s",), ALL),
    ("metric.queries", "count", "lower", ("queries", "wall_s"), PIPELINE),
    ("metric.distinct_query_ratio", "fraction", "higher", ("queries", "wall_s"), PIPELINE),
    ("hierarchy.phase1_s", "s", "lower", ("wall_s",), ALL),
    ("hierarchy.phase2_s", "s", "lower", ("wall_s", "queries"), ALL),
    ("hierarchy.phase2_self_s", "s", "lower", ("wall_s",), ALL),
    ("hierarchy.sparsify_s", "s", "lower", ("wall_s", "queries"), ALL),
    ("hierarchy.extract_s", "s", "lower", ("wall_s", "queries"), PIPELINE),
    ("hierarchy.phase2_queries", "count", "lower", ("queries",), ALL),
    ("hierarchy.phase3_queries", "count", "lower", ("queries",), PIPELINE),
    ("baselines.local_search_s", "s", "lower", ("wall_s",), PIPELINE),
    ("baselines.local_search_queries", "count", "lower", ("wall_s", "queries"), PIPELINE),
    ("adversary.answers", "count", "lower", ("wall_s", "queries"), ADVERSARY),
    ("adversary.answer_share", "fraction", "lower", ("wall_s",), ADVERSARY),
    ("adversary.repeat_answer_ratio", "fraction", "lower", ("wall_s", "queries"), ADVERSARY),
    ("adversary.finalize_share", "fraction", "lower", ("wall_s",), ADVERSARY),
    ("adversary.audit_share", "fraction", "lower", ("wall_s",), ADVERSARY),
    ("adversary.final_distance_calls", "count", "lower", ("wall_s",), ADVERSARY),
    ("adversary.final_distance_share", "fraction", "lower", ("wall_s",), ADVERSARY),
    ("adversary.edges", "count", "lower", ("wall_s", "peak_rss_mb"), ADVERSARY),
    ("adversary.closed_nodes", "count", "lower", ("wall_s",), ADVERSARY),
    ("trace.overhead_s", "s", "lower", (), ALL),
)


def layer_metrics(totals: dict, wall_s: float, distinct_ratio: float,
                  from_result: dict) -> dict[str, float]:
    """Per-layer values of one traced run from its span totals.

    Times spent only inside the adversary are shares of the traced wall
    time, so they read 0 rather than an absent time on the pipelines.
    """
    t = totals
    out = {
        "greedy.steps": t["greedy.step"]["calls"],
        "greedy.step_s": t["greedy.step"]["total_s"],
        "greedy.states": t["greedy.init"]["calls"],
        "greedy.init_s": t["greedy.init"]["total_s"],
        "greedy.init_self_s": t["greedy.init"]["self_s"],
        "metric.pairwise_calls": t["metric.pairwise"]["calls"],
        "metric.pairwise_s": t["metric.pairwise"]["total_s"],
        "metric.pairwise_self_s": t["metric.pairwise"]["self_s"],
        "metric.queries": t["metric.pairwise"]["queries"],
        "metric.distinct_query_ratio": distinct_ratio,
        "hierarchy.phase1_s": t["hierarchy.phase1"]["total_s"],
        "hierarchy.phase2_s": t["hierarchy.phase2"]["total_s"],
        "hierarchy.phase2_self_s": t["hierarchy.phase2"]["self_s"],
        "hierarchy.sparsify_s": t["hierarchy.sparsify"]["total_s"],
        "hierarchy.extract_s": t["hierarchy.extract"]["total_s"],
        "hierarchy.phase2_queries": t["hierarchy.phase2"]["queries"],
        "hierarchy.phase3_queries": (t["hierarchy.sparsify"]["queries"]
                                     + t["hierarchy.extract"]["queries"]),
        "baselines.local_search_s": t["baselines.local_search"]["total_s"],
        "baselines.local_search_queries": t["baselines.local_search"]["queries"],
        "adversary.answers": 0,
        "adversary.answer_share": t["adversary.answer"]["total_s"] / wall_s,
        "adversary.repeat_answer_ratio": 0.0,
        "adversary.finalize_share": t["adversary.finalize"]["total_s"] / wall_s,
        "adversary.audit_share": t["adversary.audit"]["total_s"] / wall_s,
        "adversary.final_distance_calls": t["adversary.final_distance"]["calls"],
        "adversary.final_distance_share": t["adversary.final_distance"]["total_s"] / wall_s,
        "adversary.edges": 0,
        "adversary.closed_nodes": 0,
    }
    out.update(from_result)
    return out
