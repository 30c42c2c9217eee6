"""Command-line front end.

Subcommands: ``cluster`` (run one algorithm on one instance), ``bench``
(sweep a corpus into a CSV), ``adversary`` (drive an algorithm through the
adaptive adversary and audit the construction), ``verify`` (metric /
certificate / pipeline / replay audits), ``gen`` (write generated instances).

Exit codes: 0 success, 1 audit failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .adversary import QueryBudgetExceededError, run_against
from .generators import GENERATORS, make_instance
from .greedy import BoundCertificate, audit_certificate
from .hierarchy import audit_pipeline
from .io import load_space, write_matrix_csv, write_points_csv
from .metric import (
    EnumerationBudgetError,
    MetricInputError,
    Objective,
    PointsOracle,
    opt_bruteforce,
    verify_metric,
)

OBJECTIVES = [o.value for o in Objective]
INPUT_FORMATS = ["matrix", "points-l2", "points-l1"]


def _parse_params(text: str | None) -> dict:
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        key, _, val = chunk.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        try:
            out[key] = int(val)
        except ValueError:
            try:
                out[key] = float(val)
            except ValueError:
                out[key] = val
    return out


def _parse_list(text: str | None, cast) -> tuple:
    return tuple(cast(v) for v in (text or "").split(",") if v.strip())


def cmd_cluster(args) -> int:
    space = load_space(args.input, args.format)
    solution, record, cert = harness.run_algorithm(
        args.algo, space, args.k, args.objective, delta=args.delta,
        instance=str(args.input))
    audit_ok = True
    audit_payload = None
    if args.audit:
        record = harness.attach_ratio(record, space, args.k)
        try:
            if args.algo == "hierarchical":
                audit = audit_pipeline(space, args.k, args.objective)
                audit_ok = audit.passed
                audit_payload = {"passed": audit.passed,
                                 "violations": audit.violations,
                                 "ratio": audit.ratio,
                                 "chain_ratio_bound": audit.chain_ratio_bound}
            elif cert is not None:
                opt, _ = opt_bruteforce(space, args.k, objective=args.objective)
                rep = audit_certificate(cert, opt)
                audit_ok = rep.passed
                audit_payload = {"passed": rep.passed, "violations": rep.violations}
            else:
                audit_payload = {"passed": True, "violations": [],
                                 "note": "ratio-only audit for this algorithm"}
        except EnumerationBudgetError as exc:
            audit_payload = {"passed": True, "skipped": str(exc)}
    lines = "\n".join(str(c) for c in solution.centers)
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(lines + "\n")
    else:
        print(lines)
    if args.emit_cert and cert is not None:
        with open(args.emit_cert, "w") as fh:
            fh.write(cert.dumps())
    if args.emit_json:
        payload = record.to_json_dict()
        if audit_payload is not None:
            payload["audit"] = audit_payload
        with open(args.emit_json, "w") as fh:
            json.dump(payload, fh)
    print(f"cost={solution.cost!r} queries={record.queries}", file=sys.stderr)
    return 0 if audit_ok else 1


def cmd_bench(args) -> int:
    spec = harness.SweepSpec(
        generator=args.generator,
        params=_parse_params(args.gen_params),
        ns=_parse_list(args.ns, int),
        ks=_parse_list(args.ks, int),
        algorithms=tuple(args.algos.split(",") if args.algos else harness.ALGORITHMS),
        deltas=_parse_list(args.deltas, float) or (harness.GUHA_DELTA,),
        objective=args.objective,
        seed=args.seed,
        with_ratio=args.ratio,
    )
    records = harness.bench_sweep(spec)
    harness.write_records_csv(args.out, records)
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return 0


def cmd_adversary(args) -> int:
    algo = harness.adversary_algorithm(args.algo)
    try:
        result = run_against(algo, args.n, args.k, args.delta, args.objective,
                             enforce_budget=args.enforce_budget)
    except QueryBudgetExceededError as exc:
        print(f"adversary: {exc}", file=sys.stderr)
        return 1
    audit = result.audit
    if args.emit_metric:
        if args.n > 2048:
            print("adversary: --emit-metric capped at n = 2048", file=sys.stderr)
            return 2
        write_matrix_csv(args.emit_metric, result.metric.matrix())
    if args.emit_report:
        with open(args.emit_report, "w") as fh:
            json.dump(harness.adversary_report_dict(result), fh)
    status = "PASS" if audit.passed else "FAIL"
    print(f"{status} n={audit.n} k={audit.k} delta={audit.delta} r={audit.r} "
          f"cost={audit.solution_cost:.1f} witness={audit.witness_cost:.1f} "
          f"closed={audit.closed_nodes} queries={audit.algo_queries}")
    for v in audit.violations:
        print(f"  violation: {v}", file=sys.stderr)
    return 0 if audit.passed else 1


def cmd_verify(args) -> int:
    if args.what == "metric":
        space = load_space(args.input, args.format)
        mode = args.mode or ("exhaustive" if space.n <= 1024 else "sampled")
        report = verify_metric(space, mode=mode, samples=args.samples)
        if report.ok:
            print(f"metric ok (n={space.n}, mode={mode})")
            return 0
        print(f"violations: diag={len(report.diagonal_violations)} "
              f"sym={len(report.symmetry_violations)} "
              f"triangle={len(report.triangle_violations)}")
        return 1
    if args.what == "certificate":
        with open(args.cert) as fh:
            try:
                cert = BoundCertificate.loads(fh.read())
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise MetricInputError(f"malformed certificate: {exc}") from None
        space = load_space(args.input, args.format)
        opt, _ = opt_bruteforce(space, args.k, objective=cert.objective)
        rep = audit_certificate(cert, opt, k=args.k, eps=args.eps)
        if rep.passed:
            print(f"certificate ok ({rep.steps_checked} steps)")
            return 0
        for v in rep.violations:
            print(f"violation: {v}")
        return 1
    if args.what == "pipeline":
        space = load_space(args.input, args.format)
        audit = audit_pipeline(space, args.k, args.objective)
        if audit.passed:
            print(f"pipeline ok: ratio={audit.ratio:.4f} "
                  f"chain bound={audit.chain_ratio_bound:.4f}")
            return 0
        for v in audit.violations:
            print(f"violation: {v}")
        return 1
    if args.what == "replay":
        try:
            with open(args.report) as fh:
                report = json.load(fh)
            ok, problems = harness.replay_adversary(report)
        except (KeyError, TypeError, ValueError) as exc:
            # json.JSONDecodeError is a ValueError
            raise MetricInputError(f"malformed report: {exc!r}") from None
        if ok:
            print(f"replay consistent ({len(report['queries'])} answers)")
            return 0
        for p in problems:
            print(f"violation: {p}")
        return 1
    raise MetricInputError(f"unknown verify target {args.what!r}")


def cmd_gen(args) -> int:
    params = _parse_params(args.gen_params)
    space = make_instance(args.kind, args.n, seed=args.seed, **params)
    oracle = space.oracle
    if args.format == "matrix":
        full = oracle.pairwise(space.all_points(), space.all_points())
        write_matrix_csv(args.out, full, space.weights)
    else:
        if not isinstance(oracle, PointsOracle):
            raise MetricInputError("points output requires a point-set generator")
        write_points_csv(args.out, oracle.points, space.weights)
    print(f"wrote n={space.n} instance to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="detkmed",
                                description="deterministic k-clustering toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cluster", help="run one algorithm on one instance")
    c.add_argument("--algo", choices=harness.ALGORITHMS, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--objective", choices=OBJECTIVES, default="median")
    c.add_argument("--input", required=True)
    c.add_argument("--format", choices=INPUT_FORMATS, default="matrix")
    c.add_argument("--delta", type=float, default=harness.GUHA_DELTA,
                   help="guha time/quality knob")
    c.add_argument("--audit", action="store_true",
                   help="exact bound audits when brute force is feasible")
    c.add_argument("--output", default="-", help="centers file (one id per line)")
    c.add_argument("--emit-json")
    c.add_argument("--emit-cert", help="reverse-greedy removal certificate (JSON)")
    c.set_defaults(fn=cmd_cluster)

    b = sub.add_parser("bench", help="sweep a corpus into a CSV")
    b.add_argument("--ns", default="", help="comma-separated point counts")
    b.add_argument("--ks", default="", help="comma-separated k values")
    b.add_argument("--algos", default=",".join(harness.ALGORITHMS))
    b.add_argument("--deltas", default=str(harness.GUHA_DELTA))
    b.add_argument("--objective", choices=OBJECTIVES, default="median")
    b.add_argument("--generator", choices=sorted(GENERATORS), default="uniform-points")
    b.add_argument("--gen-params", default="", help="e.g. dim=2,extent=1.0")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--ratio", action="store_true", help="attach brute-force ratios")
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_bench)

    a = sub.add_parser("adversary", help="stress an algorithm through the adversary")
    a.add_argument("--algo", choices=harness.ALGORITHMS, default="hierarchical")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--k", type=int, required=True)
    a.add_argument("--delta", type=float, default=1.0)
    a.add_argument("--objective", choices=["median", "means"], default="median")
    a.add_argument("--emit-metric", help="finalized matrix CSV (n <= 2048)")
    a.add_argument("--emit-report", help="audit + transcript JSON")
    a.add_argument("--enforce-budget", action="store_true",
                   help="hard-stop the algorithm after n*k*delta queries")
    a.set_defaults(fn=cmd_adversary)

    v = sub.add_parser("verify", help="run audits")
    vs = v.add_subparsers(dest="what", required=True)
    vm = vs.add_parser("metric")
    vm.add_argument("--input", required=True)
    vm.add_argument("--format", choices=INPUT_FORMATS, default="matrix")
    vm.add_argument("--mode", choices=["exhaustive", "sampled"],
                    help="default: exhaustive for n <= 1024, sampled above")
    vm.add_argument("--samples", type=int, default=2000)
    vc = vs.add_parser("certificate")
    vc.add_argument("--cert", required=True)
    vc.add_argument("--input", required=True)
    vc.add_argument("--format", choices=INPUT_FORMATS, default="matrix")
    vc.add_argument("--k", type=int, required=True)
    vc.add_argument("--eps", type=float, default=None)
    vp = vs.add_parser("pipeline")
    vp.add_argument("--input", required=True)
    vp.add_argument("--format", choices=INPUT_FORMATS, default="matrix")
    vp.add_argument("--k", type=int, required=True)
    vp.add_argument("--objective", choices=OBJECTIVES, default="median")
    vr = vs.add_parser("replay")
    vr.add_argument("--report", required=True)
    v.set_defaults(fn=cmd_verify)

    g = sub.add_parser("gen", help="write a generated instance")
    g.add_argument("--kind", choices=sorted(GENERATORS), required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--gen-params", default="")
    g.add_argument("--format", choices=["matrix", "points"], default="matrix")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MetricInputError, OSError, EnumerationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
