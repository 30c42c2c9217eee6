import csv
import json

import numpy as np
import pytest

from detkmed.cli import build_parser, main
from detkmed.generators import make_instance, uniform_points
from detkmed.harness import CSV_COLUMNS
from detkmed.io import (
    load_space,
    read_matrix_csv,
    read_points_csv,
    write_matrix_csv,
    write_points_csv,
)


@pytest.fixture
def matrix_file(tmp_path):
    sp = uniform_points(12, seed=1)
    full = sp.pairwise(sp.all_points(), sp.all_points())
    path = tmp_path / "m12.csv"
    write_matrix_csv(path, full, sp.weights)
    return path


def test_matrix_roundtrip(tmp_path, matrix_file):
    matrix, weights = read_matrix_csv(matrix_file)
    assert matrix.shape == (12, 12)
    assert weights is not None and weights.shape == (12,)
    bare = tmp_path / "bare.csv"
    write_matrix_csv(bare, matrix)
    matrix2, weights2 = read_matrix_csv(bare)
    assert np.array_equal(matrix, matrix2) and weights2 is None


def test_points_roundtrip(tmp_path):
    pts = np.array([[0.0, 1.0], [2.0, 3.0]])
    path = tmp_path / "p.csv"
    write_points_csv(path, pts, [2.0, 1.0])
    w, p = read_points_csv(path)
    assert np.array_equal(p, pts) and np.array_equal(w, [2.0, 1.0])
    sp = load_space(path, "points-l1")
    assert sp.distance(0, 1) == 4.0


def test_cluster_single_point(tmp_path):
    path = tmp_path / "one.csv"
    write_points_csv(path, np.array([[0.5, 0.5]]))
    out = tmp_path / "centers.txt"
    rc = main(["cluster", "--algo", "hierarchical", "--k", "1",
               "--input", str(path), "--format", "points-l2",
               "--output", str(out)])
    assert rc == 0
    assert out.read_text().strip() == "0"


def test_cluster_with_audit_and_json(tmp_path, matrix_file):
    record_path = tmp_path / "record.json"
    rc = main(["cluster", "--algo", "hierarchical", "--k", "3", "--audit",
               "--input", str(matrix_file), "--emit-json", str(record_path),
               "--output", str(tmp_path / "c.txt")])
    assert rc == 0
    record = json.loads(record_path.read_text())
    assert record["n"] == 12 and record["k"] == 3
    assert record["ratio"] is not None and record["ratio"] >= 1.0 - 1e-9
    assert record["audit"]["passed"]


def test_cluster_rejects_bad_k(tmp_path, matrix_file):
    rc = main(["cluster", "--algo", "hierarchical", "--k", "99",
               "--input", str(matrix_file)])
    assert rc == 2


def test_cluster_rejects_asymmetric_matrix(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1,2\n9,0,1\n2,1,0\n")
    rc = main(["cluster", "--algo", "local-search", "--k", "1",
               "--input", str(bad)])
    assert rc == 2


def test_cluster_rejects_missing_file(tmp_path):
    rc = main(["cluster", "--algo", "hierarchical", "--k", "1",
               "--input", str(tmp_path / "nope.csv")])
    assert rc == 2


def test_bench_empty_sweep(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--ns", "", "--ks", "", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows == [CSV_COLUMNS]


def test_bench_sweep_schema(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--ns", "16,32", "--ks", "2", "--algos",
               "hierarchical,guha", "--deltas", "2,4", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    # hierarchical once per n, guha once per (n, delta)
    assert len(rows) == 2 * (1 + 2)
    guha_rows = [r for r in rows if r["algorithm"] == "guha"]
    assert {r["delta"] for r in guha_rows} == {"2.0", "4.0"}
    assert all(int(r["queries"]) > 0 for r in rows)


def test_bench_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--ns", "24", "--ks", "2,3", "--algos",
            "hierarchical,reverse-greedy,local-search", "--seed", "11", "--ratio"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0

    def strip_timing(path):
        rows = list(csv.DictReader(path.open()))
        for r in rows:
            r.pop("wall_millis")
        return rows

    assert strip_timing(a) == strip_timing(b)


def test_gen_then_verify_metric(tmp_path):
    inst = tmp_path / "gen.csv"
    rc = main(["gen", "--kind", "random-matrix", "--n", "20", "--seed", "5",
               "--out", str(inst)])
    assert rc == 0
    assert main(["verify", "metric", "--input", str(inst)]) == 0


def test_gen_points_format(tmp_path):
    inst = tmp_path / "pts.csv"
    rc = main(["gen", "--kind", "clustered-points", "--n", "15",
               "--gen-params", "clusters=3,spread=0.01", "--format", "points",
               "--out", str(inst)])
    assert rc == 0
    sp = load_space(inst, "points-l2")
    assert sp.n == 15


def test_verify_metric_flags_violation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1,9\n1,0,1\n9,1,0\n")
    assert main(["verify", "metric", "--input", str(bad)]) == 1


def test_certificate_roundtrip_and_corruption(tmp_path, matrix_file):
    cert_path = tmp_path / "cert.json"
    rc = main(["cluster", "--algo", "reverse-greedy", "--k", "2", "--audit",
               "--input", str(matrix_file), "--emit-cert", str(cert_path),
               "--output", str(tmp_path / "c.txt")])
    assert rc == 0
    rc = main(["verify", "certificate", "--cert", str(cert_path),
               "--input", str(matrix_file), "--k", "2"])
    assert rc == 0
    payload = json.loads(cert_path.read_text())
    payload["steps"][0][3] *= 100.0
    cert_path.write_text(json.dumps(payload))
    rc = main(["verify", "certificate", "--cert", str(cert_path),
               "--input", str(matrix_file), "--k", "2"])
    assert rc == 1
    cert_path.write_text("{not json")
    assert main(["verify", "certificate", "--cert", str(cert_path),
                 "--input", str(matrix_file), "--k", "2"]) == 2


def test_means_certificate_roundtrip(tmp_path, matrix_file):
    # the certificate carries the eps it was audited with
    cert_path = tmp_path / "cert.json"
    rc = main(["cluster", "--algo", "reverse-greedy", "--k", "2", "--objective", "means",
               "--audit", "--input", str(matrix_file), "--emit-cert", str(cert_path),
               "--output", str(tmp_path / "c.txt")])
    assert rc == 0
    assert json.loads(cert_path.read_text())["eps"] == pytest.approx(1 / (1 + np.log2(6)))
    assert main(["verify", "certificate", "--cert", str(cert_path),
                 "--input", str(matrix_file), "--k", "2"]) == 0


@pytest.mark.parametrize("command", [
    ["gen", "--kind", "uniform-points", "--n", "10"],
    ["bench", "--generator", "uniform-points", "--ns", "10", "--ks", "2"],
])
@pytest.mark.parametrize("params,message", [
    ("bogus=1", "uniform-points takes no parameter bogus"),
    ("seed=3", "seed given both as an argument and as a parameter"),
    ("n=5", "uniform-points takes no parameter n"),
])
def test_gen_params_reject_keys_the_generator_does_not_take(tmp_path, capsys, command,
                                                            params, message):
    out = tmp_path / "out.csv"
    assert main(command + ["--gen-params", params, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["bench", "--ns", "10,x", "--ks", "2"], "--ns: invalid literal for int()"),
    (["bench", "--ns", "10", "--ks", "2", "--deltas", "x"], "--deltas: could not convert"),
    (["gen", "--kind", "uniform-points", "--n", "10", "--gen-params", "dim=x"],
     "uniform-points parameter dim must be int, got 'x'"),
    (["gen", "--kind", "uniform-points", "--n", "5", "--seed", "-1"],
     "seed must be a nonnegative integer, got -1"),
    (["gen", "--kind", "uniform-points", "--n", "-1"], "n must lie in [1, inf], got -1"),
    (["gen", "--kind", "uniform-points", "--n", "10", "--gen-params", "extent=-1"],
     "uniform-points parameter extent must be finite and at least 0, got -1"),
    (["gen", "--kind", "uniform-points", "--n", "10", "--gen-params", "extent=nan"],
     "uniform-points parameter extent must be finite and at least 0, got nan"),
    (["gen", "--kind", "uniform-points", "--n", "10", "--gen-params", "dim=-2"],
     "uniform-points parameter dim must be at least 1, got -2"),
    (["gen", "--kind", "uniform-points", "--n", "10", "--gen-params", "dim=0"],
     "uniform-points parameter dim must be at least 1, got 0"),
    (["gen", "--kind", "clustered-points", "--n", "10", "--gen-params", "spread=-1"],
     "clustered-points parameter spread must be finite and at least 0, got -1"),
    (["gen", "--kind", "random-matrix", "--n", "10", "--gen-params", "low=5,high=1"],
     "random-matrix: low 5 exceeds high 1"),
])
def test_bad_numbers_exit_2_with_an_error_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()


def test_make_instance_takes_the_seed_once():
    a = make_instance("uniform-points", 10, 3, dim=3)
    b = make_instance("uniform-points", 10, seed=3, dim=3)
    assert np.array_equal(a.oracle.points, b.oracle.points)
    assert not np.array_equal(a.oracle.points, make_instance("uniform-points", 10).oracle.points)


def test_gen_points_rejects_matrix_generator(tmp_path):
    rc = main(["gen", "--kind", "random-matrix", "--n", "5", "--format", "points",
               "--out", str(tmp_path / "pts.csv")])
    assert rc == 2


def test_verify_pipeline(tmp_path, matrix_file):
    assert main(["verify", "pipeline", "--input", str(matrix_file), "--k", "2"]) == 0


def test_adversary_cli_with_report_and_replay(tmp_path):
    report = tmp_path / "report.json"
    metric = tmp_path / "metric.csv"
    rc = main(["adversary", "--algo", "hierarchical", "--n", "96", "--k", "1",
               "--delta", "1", "--emit-report", str(report),
               "--emit-metric", str(metric)])
    assert rc == 0
    assert main(["verify", "replay", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    payload["queries"][3][2] = 9.9
    report.write_text(json.dumps(payload))
    assert main(["verify", "replay", "--report", str(report)]) == 1
    # emitted metric is a valid shortest-path metric
    assert main(["verify", "metric", "--input", str(metric)]) == 0


def test_adversary_cli_rejects_nan_delta(capsys):
    assert main(["adversary", "--n", "64", "--k", "1", "--delta", "nan"]) == 2
    assert "delta must be a finite number of at least 1, got nan" in capsys.readouterr().err


def test_adversary_cli_emit_metric_cap_exits_2(tmp_path, capsys):
    metric = tmp_path / "metric.csv"
    assert main(["adversary", "--n", "2049", "--k", "1",
                 "--emit-metric", str(metric)]) == 2
    assert "dense finalized metric capped at n = 2048" in capsys.readouterr().err
    assert not metric.exists()


def test_adversary_cli_budget_exit(tmp_path):
    rc = main(["adversary", "--algo", "reverse-greedy", "--n", "64", "--k", "2",
               "--delta", "1", "--enforce-budget"])
    assert rc == 1


def test_adversary_cli_over_budget_premise_not_met(capsys):
    # local search spends 16383 queries against an allowance of 128
    assert main(["adversary", "--algo", "local-search", "--n", "128", "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert "premise not met: 16383 queries exceed" in err
    assert "no open node survives" not in err
    assert "closed nodes exceed bound" not in err


def test_guha_delta_defaults_read_one_constant(monkeypatch):
    import detkmed.harness as harness

    assert harness.SweepSpec().deltas == (harness.GUHA_DELTA,)
    monkeypatch.setattr(harness, "GUHA_DELTA", 3.0)
    parser = build_parser()
    cluster = parser.parse_args(["cluster", "--algo", "guha", "--k", "1", "--input", "x"])
    assert cluster.delta == 3.0
    assert float(parser.parse_args(["bench", "--out", "x"]).deltas) == 3.0


def test_replay_rejects_non_json_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text("{not json")
    assert main(["verify", "replay", "--report", str(report)]) == 2
    assert "malformed report" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [{"n": 16}, [1, 2, 3]])
def test_replay_rejects_malformed_report(tmp_path, capsys, payload):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert main(["verify", "replay", "--report", str(report)]) == 2
    assert "malformed report" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "replay", "--report"],
    ["cluster", "--algo", "hierarchical", "--k", "1", "--input"],
    ["verify", "metric", "--input"],
])
def test_directory_inputs_exit_2(tmp_path, capsys, argv):
    assert main(argv + [str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_metric_mode_choice(tmp_path, matrix_file, capsys):
    assert main(["verify", "metric", "--input", str(matrix_file)]) == 0
    assert "mode=exhaustive" in capsys.readouterr().out
    inst = tmp_path / "pts.csv"
    write_points_csv(inst, np.random.default_rng(0).random((1100, 2)))
    args = ["verify", "metric", "--input", str(inst), "--format", "points-l2"]
    assert main(args + ["--mode", "exhaustive"]) == 2
    assert "n <= 1024" in capsys.readouterr().err
    assert main(args) == 0
    assert "mode=sampled" in capsys.readouterr().out
