"""The scripts under scripts/ run end to end on small grids and print their
table headers; they read audit fields and metrics shapes of the library."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_adversary_demo():
    lines = _run("adversary_demo.py", "--cases", "128:2:1", "--algos", "hierarchical,guha")
    assert lines[0].split() == ["algo", "n", "k", "d", "r", "cost", "bound", "witness",
                                "closed", "ratio", "queries", "secs", "ok"]
    rows = [line.split() for line in lines[1:]]
    assert [(row[0], row[1], row[-1]) for row in rows] == [
        ("hierarchical", "128", "yes"), ("guha", "128", "yes")]


def test_ratio_study(tmp_path):
    out = tmp_path / "ratios.csv"
    lines = _run("ratio_study.py", "--n", "8", "--k", "2", "--seeds", "1", "--out", str(out))
    assert lines[0].split() == ["algorithm", "mean", "ratio", "max", "ratio", "runs"]
    assert [line.split()[0] for line in lines[1:]] == [
        "hierarchical", "guha", "reverse-greedy", "local-search"]
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["algorithm", "instance", "n", "k", "cost", "ratio", "queries",
                       "wall_millis"]
    assert len(rows) == 1 + 3 * 4


def test_calibrate_query_budget():
    lines = _run("calibrate_query_budget.py", "--ns", "64,128", "--ks", "4")
    pipeline = lines.index("== hierarchical pipeline ==")
    baseline = lines.index("== branching baseline ==")
    assert lines[pipeline + 1].split() == ["n", "k", "queries", "C", "doubling"]
    assert lines[baseline + 1].split() == ["n", "k", "delta", "queries", "C-prime"]
    assert len(lines[pipeline + 2 : baseline]) == 3  # two rows and a blank line
