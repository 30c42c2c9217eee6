"""detkmed benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

Run from the repository root. It imports detkmed from ./src, makes the
workload's instances from the seed, and calls the library's public entry
point in a closed loop, one call at a time, until S seconds have passed.
Every call's output is checked (see workloads.py); a call that raises, fails
a check or differs from an earlier call on the same instance counts as
failed. With --trace 0 it reports the end-to-end metrics; wall_s and
setup_s are times at a reference speed (see `normalized`), and the raw
times are printed beside them. With --trace 1 it
alternates untraced and traced calls and reports the per-layer metrics
(see metrics.py). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Spans of a traced run are written to perfbench/out/. `--workload all` runs
every workload in its own child process, so each peak RSS is its own.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_BATCH = 4
# The reference kernel's time on one quiet core of a 2.1 GHz Xeon
# (Python 3.11, numpy 2.4); wall_s and setup_s are scaled to that speed.
REFERENCE_S = 0.043


def import_library() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import detkmed
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import detkmed from {SRC}: {exc}")
    if Path(detkmed.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: detkmed was imported from {detkmed.__file__}, "
                         f"not from {SRC}")


def check_spec(workload_names, end_to_end, per_layer) -> None:
    """BENCHMARK.json must declare exactly what this script measures."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"perfbench: cannot read BENCHMARK.json: {exc}")
    declared = (
        sorted(w["name"] for w in spec["workloads"]),
        [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    )
    measured = (sorted(workload_names), list(end_to_end),
                [row[:3] for row in per_layer])
    if declared != measured:
        raise SystemExit("perfbench: BENCHMARK.json and perfbench/metrics.py disagree")


class Log:
    """Attempted and failed calls, with the first output of each instance
    that later calls on the same instance must reproduce."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = {}

    def record(self, idx: int, checked, extra=()) -> bool:
        self.attempted += 1
        problems = list(checked.problems) + list(extra)
        first = self.first.setdefault(idx, checked)
        if checked.digest != first.digest:
            problems.append("output differs from an earlier run of the same instance")
        for p in problems:
            print(f"perfbench: instance {idx}: {p}", file=sys.stderr)
        if problems:
            self.failed += 1
        return not problems

    def crashed(self, idx: int) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: instance {idx} raised:", file=sys.stderr)
        traceback.print_exc()


def timed_call(workload, inst, setups=None):
    """(seconds, result) of one call on a fresh set-up of inst. The call
    starts after a full garbage collection. With a `setups` list, the
    set-up is made SETUP_BATCH times, each timed and appended there; the
    call uses the last one."""
    gc.collect()
    for _ in range(SETUP_BATCH if setups is not None else 1):
        t0 = time.perf_counter()
        data = workload.setup(inst)
        if setups is not None:
            setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    result = workload.run(data, inst)
    return time.perf_counter() - t0, result


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


_REFERENCE_POINTS = None


def reference_seconds() -> float:
    """Seconds of a fixed kernel that mixes the two kinds of work the
    library does: a dict-heavy interpreter loop and numpy distance blocks
    with an argsort. It does not use detkmed, so no change to the library
    changes it."""
    global _REFERENCE_POINTS
    import numpy as np

    if _REFERENCE_POINTS is None:
        _REFERENCE_POINTS = np.random.default_rng(0).random((2048, 2))
    x = _REFERENCE_POINTS
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(120_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    for lo in range(0, 256, 32):  # small blocks, to stay out of peak_rss_mb
        d = np.sqrt(((x[lo:lo + 32, None, :] - x[None, :, :]) ** 2).sum(-1))
        np.argsort(d, axis=1)
    return time.perf_counter() - t0


def normalized(times, refs) -> float:
    """Median over the run of time / reference time, times REFERENCE_S.

    The speed of a shared host swings by up to 2x for tens of seconds at a
    time, on identical calls and in user time, not steal. The reference
    kernel is timed just before and after each call, so it runs at the
    call's speed; the ratio keeps what the code costs and drops most of
    the host's swing. The result is the time the call would take on the
    host where the reference kernel takes REFERENCE_S."""
    if not times:
        return 0.0
    return REFERENCE_S * statistics.median(t / r for t, r in zip(times, refs))


def measure_end_to_end(workload, instances, seconds: float):
    log = Log()
    walls, wall_refs, setups, setup_refs = [], [], [], []
    reference_seconds()  # warm-up
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(instances) or time.perf_counter() < deadline:
        idx = i % len(instances)
        i += 1
        call_setups: list[float] = []
        try:
            before = reference_seconds()
            wall_s, result = timed_call(workload, instances[idx], call_setups)
            ref = (before + reference_seconds()) / 2
            checked = workload.check(instances[idx], result)
        except Exception:
            log.crashed(idx)
            continue
        if log.record(idx, checked):
            walls.append(wall_s)
            wall_refs.append(ref)
            setups += call_setups
            setup_refs += [ref] * len(call_setups)
    runs = list(log.first.values())
    metrics = {
        "wall_s": normalized(walls, wall_refs),
        "setup_s": normalized(setups, setup_refs),
        "queries": statistics.fmean(c.queries for c in runs) if runs else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solution_cost": statistics.fmean(c.cost for c in runs) if runs else 0.0,
    }
    detail = {"calls": len(walls), "raw_call_median_s": _median(walls),
              "raw_call_min_s": min(walls, default=0.0),
              "raw_setup_median_s": _median(setups),
              "reference_median_s": _median(wall_refs)}
    return log, metrics, detail


def measure_layers(workload, instances, seconds: float, per_layer, trace_path: Path,
                   meta: dict):
    from metrics import layer_metrics
    from spans import Tracer, distinct_pairs, not_restored

    log = Log()
    tracer = Tracer()
    samples: dict[str, list[float]] = {row[0]: [] for row in per_layer}
    distinct_ratio = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        idx = i % len(instances)
        run_id = i
        i += 1
        try:
            plain_s, plain = timed_call(workload, instances[idx])
            plain_checked = workload.check(instances[idx], plain)
            log.record(idx, plain_checked)
            lo = tracer.span_count()
            with tracer.installed(run_id, record_pairs=(run_id == 0)):
                traced_s, traced = timed_call(workload, instances[idx])
            totals = tracer.totals(lo, tracer.span_count())
            if run_id == 0:
                queries = totals["metric.pairwise"]["queries"]
                distinct_ratio = distinct_pairs(tracer.rectangles) / max(1, queries)
                tracer.rectangles = None
            layers = layer_metrics(totals, traced_s, distinct_ratio,
                                   workload.result_layers(traced))
            problems = workload.count_problems(traced, totals, layers)
            problems += [f"{name} was not restored" for name in not_restored()]
            checked = workload.check(instances[idx], traced)
            if checked.digest != plain_checked.digest:
                problems.append("tracing changed the output")
        except Exception:
            log.crashed(idx)
            continue
        if log.record(idx, checked, problems):
            layers["trace.overhead_s"] = traced_s - plain_s
            for name in samples:
                samples[name].append(layers[name])
    tracer.write(trace_path, meta)
    metrics = {name: _median(values) for name, values in samples.items()}
    return log, metrics, {"traced_runs": len(samples["trace.overhead_s"]),
                          "spans": tracer.span_count(), "trace_file": str(trace_path)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def run_one(name: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    check_spec(WORKLOADS, END_TO_END, PER_LAYER)
    workload = WORKLOADS[name]
    instances = workload.instances(seed)
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "instances": [[inst.n, inst.seed] for inst in instances],
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": git_commit(),
    }
    if trace:
        path = OUT / f"trace-{name}-seed{seed}.npz"
        log, values, detail = measure_layers(workload, instances, seconds, PER_LAYER,
                                             path, meta)
        units = {row[0]: row[1] for row in PER_LAYER}
    else:
        log, values, detail = measure_end_to_end(workload, instances, seconds)
        units = {row[0]: row[1] for row in END_TO_END}
    meta.update(detail)
    print(f"perfbench {name} seed={seed} trace={trace}: {log.attempted} runs, "
          f"{log.failed} failed, failure_ratio {log.failed / max(1, log.attempted):.4f}")
    for metric, value in values.items():
        print(f"  {metric:34s} {value:.6g} {units[metric]}")
    print("provenance " + json.dumps(meta))
    return {
        "correct": log.failed == 0 and log.attempted > 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Each workload in a child process of its own."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    import_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    elif args.workload in WORKLOADS:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    else:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)} or all")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
