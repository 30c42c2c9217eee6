"""Self-test of the benchmark at a tiny size. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER, layer_metrics  # noqa: E402
from spans import Tracer, distinct_pairs, not_restored  # noqa: E402
from workloads import WORKLOADS, AdversaryWorkload  # noqa: E402

# At n=512 the large-k pipeline issues 712,704 queries, over the C07 bound of
# 668,467: with n/k = 8, Phase III local search dominates, a regime outside
# the C07 grid. 1024 keeps the self-test inside the bound the benchmark checks.
TINY_N = {"pipeline-large-k": 1024, "adversary-median": 512}


def _raw_output(workload, result):
    """Every output the library returned: transcript for the adversary,
    centers, cost and queries for the pipeline."""
    if isinstance(workload, AdversaryWorkload):
        return result.session.transcript()
    solution, metrics = result
    return solution.centers, solution.cost, metrics.queries


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_changes_no_output(name):
    workload = WORKLOADS[name]
    inst = workload.instances(0, TINY_N[name])[0]
    plain = workload.run(workload.setup(inst), inst)
    tracer = Tracer()
    with tracer.installed(0, record_pairs=True):
        traced = workload.run(workload.setup(inst), inst)
    assert not_restored() == []

    for a, b in zip(_raw_output(workload, plain), _raw_output(workload, traced)):
        assert np.array_equal(a, b)
    checked = workload.check(inst, traced)
    assert checked.problems == []
    assert checked.digest == workload.check(inst, plain).digest

    totals = tracer.totals(0, tracer.span_count())
    ratio = distinct_pairs(tracer.rectangles) / totals["metric.pairwise"]["queries"]
    assert 0.0 < ratio <= 1.0
    layers = layer_metrics(totals, 1.0, ratio, workload.result_layers(traced))
    assert workload.count_problems(traced, totals, layers) == []
    assert {row[0] for row in PER_LAYER} - {"trace.overhead_s"} <= set(layers)


def test_wrapped_names_restored_after_exception():
    workload = WORKLOADS["pipeline-large-k"]
    inst = workload.instances(0, 256)[0]
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed(0):
            workload.run(workload.setup(inst), inst)
            assert not_restored() != []
            raise ZeroDivisionError
    assert not_restored() == []


def test_distinct_pairs_counts_unordered_pairs():
    rects = [(4, np.array([0, 1]), np.array([1, 2])), (4, np.array([1]), np.array([0]))]
    # (0,1) (0,2) (1,1) (1,2); the second rectangle repeats (0,1)
    assert distinct_pairs(rects) == 4


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_measurement_loops(name, tmp_path):
    workload = WORKLOADS[name]
    instances = workload.instances(1, TINY_N[name])
    log, values, _ = run.measure_end_to_end(workload, instances, 0)
    assert (log.attempted, log.failed) == (len(instances), 0)
    assert set(values) == {row[0] for row in END_TO_END}
    assert all(v > 0 for v in values.values())
    log, values, _ = run.measure_layers(workload, instances, 0, PER_LAYER,
                                        tmp_path / "spans.npz", {})
    assert (log.attempted, log.failed) == (2, 0)
    assert set(values) == {row[0] for row in PER_LAYER}
    assert (tmp_path / "spans.npz").is_file()
    assert not_restored() == []


def test_spec_matches_benchmark_json():
    run.check_spec(WORKLOADS, END_TO_END, PER_LAYER)


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "pipeline-large-k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
