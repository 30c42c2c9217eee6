"""Outside-in tracing of the detkmed layers.

For the duration of a traced run the tracer replaces the public functions and
methods listed in WRAPPED with wrappers that record one span per call, then
puts the originals back. Nothing under src/ is edited. Spans live in flat
in-memory arrays and are written out once, when the benchmark run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from pathlib import Path

import numpy as np

import detkmed.adversary as adversary
import detkmed.greedy as greedy
import detkmed.hierarchy as hierarchy
import detkmed.metric as metric

# (owner, attribute, span name). Module globals are patched where their
# callers look them up: hierarchical_cluster and extract_k resolve these names
# in detkmed.hierarchy, run_against resolves audit_session in detkmed.adversary.
WRAPPED = (
    (hierarchy, "build_partitions", "hierarchy.phase1"),
    (hierarchy, "phase2", "hierarchy.phase2"),
    (hierarchy, "sparsify", "hierarchy.sparsify"),
    (hierarchy, "extract_k", "hierarchy.extract"),
    (hierarchy, "local_search_kmedian", "baselines.local_search"),
    (adversary, "audit_session", "adversary.audit"),
    (metric.DistanceOracle, "pairwise", "metric.pairwise"),
    (greedy.GreedyState, "__init__", "greedy.init"),
    (greedy.GreedyState, "step", "greedy.step"),
    (adversary.AdversarySession, "answer_query", "adversary.answer"),
    (adversary.AdversarySession, "finalize", "adversary.finalize"),
    (adversary.FinalMetric, "distance", "adversary.final_distance"),
)
SPAN_NAMES = tuple(name for _, _, name in WRAPPED)
# Taken at import, before any tracer can have patched anything.
ORIGINALS = tuple(vars(owner)[attr] for owner, attr, _ in WRAPPED)
PAIRWISE = SPAN_NAMES.index("metric.pairwise")

# Unit popcount table for the distinct-pair bitmap.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


class Tracer:
    """Span recorder. Each span keeps its name, start, end, parent span and
    run id; `child` accumulates the time covered by direct children (for
    self time) and `queries` the oracle queries issued inside the span."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.queries = array("q")
        self._stack: list[int] = []
        self._run_id = -1
        self.rectangles: list[tuple[int, np.ndarray, np.ndarray]] | None = None

    @contextlib.contextmanager
    def installed(self, run_id: int, record_pairs: bool = False):
        """Wrap every name in WRAPPED for the duration of the block; spans
        recorded inside carry run_id. With record_pairs, every pairwise
        rectangle is kept so the distinct-pair ratio can be computed after.
        The originals are put back however the block ends."""
        if not_restored():
            raise RuntimeError("layer functions are already wrapped")
        self._run_id = run_id
        self.rectangles = [] if record_pairs else None
        try:
            for name_id, ((owner, attr, _), original) in enumerate(zip(WRAPPED, ORIGINALS)):
                setattr(owner, attr, self._wrap(original, name_id))
            yield self
        finally:
            for (owner, attr, _), original in zip(WRAPPED, ORIGINALS):
                setattr(owner, attr, original)

    def _wrap(self, fn, name_id: int):
        tracer = self
        if name_id == PAIRWISE:
            def wrapper(oracle, rows, cols):
                idx = tracer._open(name_id)
                try:
                    out = fn(oracle, rows, cols)
                finally:
                    tracer._close(idx)
                tracer._count_queries(idx, out.size, oracle.n, rows, cols)
                return out
        else:
            def wrapper(*args, **kwargs):
                idx = tracer._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
        return functools.wraps(fn)(wrapper)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run_id)
        self.end.append(0.0)
        self.child.append(0.0)
        self.queries.append(0)
        self._stack.append(idx)
        # the clock is read last so the bookkeeping above stays outside the span
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += t - self.start[idx]

    def _count_queries(self, idx: int, count: int, n: int, rows, cols) -> None:
        self.queries[idx] += count
        for open_idx in self._stack:
            self.queries[open_idx] += count
        if self.rectangles is not None:
            self.rectangles.append((n, np.asarray(rows, dtype=np.int64),
                                    np.asarray(cols, dtype=np.int64)))

    def span_count(self) -> int:
        return len(self.start)

    def totals(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per span name over spans lo..hi-1: call count, total and self
        seconds, and queries issued inside."""
        names = np.frombuffer(self.name, dtype=np.uint16)[lo:hi]
        start = np.frombuffer(self.start)[lo:hi]
        dur = np.frombuffer(self.end)[lo:hi] - start
        child = np.frombuffer(self.child)[lo:hi]
        queries = np.frombuffer(self.queries, dtype=np.int64)[lo:hi]
        out = {}
        for name_id, name in enumerate(SPAN_NAMES):
            sel = names == name_id
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "total_s": float(dur[sel].sum()),
                "self_s": float((dur[sel] - child[sel]).sum()),
                "queries": int(queries[sel].sum()),
            }
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            queries=np.frombuffer(self.queries, dtype=np.int64),
            meta=np.array(json.dumps(meta)),
        )


def not_restored() -> list[str]:
    """Span names whose patched attribute does not hold its original object."""
    return [name for (owner, attr, name), original in zip(WRAPPED, ORIGINALS)
            if vars(owner)[attr] is not original]


def distinct_pairs(rectangles) -> int:
    """Number of distinct unordered point pairs (self-pairs included) over
    the recorded pairwise rectangles, counted in an n*n bitmap."""
    if not rectangles:
        return 0
    n = rectangles[0][0]
    bitmap = np.zeros(n * n // 8 + 1, dtype=np.uint8)
    for _, rows, cols in rectangles:
        lo = np.minimum(rows[:, None], cols[None, :]).ravel()
        hi = np.maximum(rows[:, None], cols[None, :]).ravel()
        keys = lo * n + hi
        np.bitwise_or.at(bitmap, keys >> 3,
                         np.left_shift(1, keys & 7).astype(np.uint8))
    return int(_POPCOUNT[bitmap].sum(dtype=np.int64))
