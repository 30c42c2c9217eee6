"""Acceptance suite: one test per criterion, every tolerance pinned here.

Each test prints one `ACCEPTANCE Cnn PASS/FAIL` line (run pytest with -s or
read the captured output). Frozen regression constants carry their
calibration provenance next to their definition.
"""

import math
import time

import numpy as np

import detkmed as dk
from detkmed.adversary import run_against
from detkmed.generators import clustered_points, random_matrix, uniform_points
from detkmed.greedy import naive_reverse_greedy
from detkmed.harness import adversary_algorithm, run_algorithm
from detkmed.hierarchy import audit_pipeline, depth_for
from detkmed.metric import leq

# Criterion 7 constants, calibrated once on the (n=256, k=4) cell of the
# uniform-points corpus (seed scheme n*31+k): measured C = 3.2656, frozen
# with 25% headroom. The doubling slack is the criterion's stated 1.2.
QUERY_CONSTANT_FROZEN = 4.08
DOUBLING_SLACK = 1.2

# Criterion 6 envelope, fixed after a pilot over the brute-forceable corpus
# (worst observed margin 3.7).
ENVELOPE = lambda n, k: 3.0 + 2.0 * math.log2(n / k)


def _report(name: str, ok: bool, detail: str = "", elapsed: float = None,
            budget: float = None) -> None:
    stamp = f" [{elapsed:.1f}s / budget {budget:.0f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}{stamp}")
    assert ok, f"{name} failed: {detail}"
    if elapsed is not None and budget is not None:
        assert elapsed < budget, f"{name} exceeded its runtime budget"


def _corpus(count, max_n, min_n=4, seed0=0):
    spaces = []
    for s in range(count):
        n = min_n + (s * 7 + seed0) % (max_n - min_n + 1)
        kind = s % 4
        if kind == 0:
            spaces.append(uniform_points(n, dim=2, seed=seed0 + s))
        elif kind == 1:
            spaces.append(uniform_points(n, dim=3, seed=seed0 + s, norm="l1",
                                         unit_weights=False))
        elif kind == 2:
            spaces.append(random_matrix(n, seed=seed0 + s))
        else:
            spaces.append(clustered_points(n, clusters=max(1, n // 4),
                                           spread=0.02 if s % 2 else 0.0,
                                           seed=seed0 + s))
    return spaces


def test_c01_projection_lemmas():
    t0 = time.time()
    rng = np.random.default_rng(101)
    samples = 0
    violations = 0
    for sp in _corpus(40, max_n=50, min_n=8, seed0=1000):
        n = sp.n
        for _ in range(25):
            a = np.unique(rng.integers(0, n, size=rng.integers(1, n // 2 + 1)))
            b = np.unique(rng.integers(0, n, size=rng.integers(1, n // 2 + 1)))
            proj = dk.project(sp, a, b)
            lhs = dk.cost(sp, proj)
            if not leq(lhs, dk.cost(sp, b) + 2.0 * dk.cost(sp, a)):
                violations += 1
            ca = dk.cost(sp, a, objective="means")
            cb = dk.cost(sp, b, objective="means")
            lhs2 = dk.cost(sp, proj, objective="means")
            for eps in (0.1, 0.25, 0.5):
                if not leq(lhs2, (1 + 3 * eps) * cb + (4 + 2 / eps) * ca):
                    violations += 1
            samples += 1
    _report("C01 projection lemmas", samples >= 1000 and violations == 0,
            f"{samples} samples, {violations} violations",
            time.time() - t0, 30)


def test_c02_res_greedy_per_step_bounds():
    t0 = time.time()
    instances = 0
    violations = []
    for s, sp in enumerate(_corpus(200, max_n=14, min_n=6, seed0=2000)):
        k = 1 + s % 3
        k_prime = k if s % 2 else 2 * k
        if k_prime >= sp.n:
            continue
        instances += 1
        opt_med, _ = dk.opt_bruteforce(sp, k)
        _, cert = dk.res_greedy(sp, sp.all_points(), k_prime, k=k)
        rep = dk.audit_certificate(cert, opt_med)
        violations.extend(rep.violations)
        opt_mea, _ = dk.opt_bruteforce(sp, k, objective="means")
        _, cert2 = dk.res_greedy(sp, sp.all_points(), k_prime, objective="means",
                                 k=k, eps=0.1)
        rep2 = dk.audit_certificate(cert2, opt_mea)
        violations.extend(rep2.violations)
    _report("C02 removal-step bounds", instances >= 200 and not violations,
            f"{instances} instances, {len(violations)} violations",
            time.time() - t0, 120)


def test_c03_oracle_equivalence():
    t0 = time.time()
    mismatches = 0
    runs = 0
    for s, sp in enumerate(_corpus(500, max_n=64, min_n=4, seed0=3000)):
        obj = "means" if s % 3 == 1 else "median"
        k_prime = 1 + s % 6
        if k_prime >= sp.n:
            k_prime = max(1, sp.n - 1)
        sol, cert = dk.res_greedy(sp, sp.all_points(), k_prime, objective=obj)
        ncenters, ntrace = naive_reverse_greedy(sp, sp.all_points(), k_prime,
                                                objective=obj)
        runs += 1
        if list(sol.centers) != ncenters or \
                [st.removed for st in cert.steps] != [st.removed for st in ntrace]:
            mismatches += 1
    _report("C03 oracle equivalence", runs == 500 and mismatches == 0,
            f"{runs} instances, {mismatches} mismatches",
            time.time() - t0, 120)


def test_c04_hierarchy_structure():
    t0 = time.time()
    rng = np.random.default_rng(404)
    ns = sorted(set(
        list(range(1, 81))
        + [2 ** i + d for i in range(7, 17) for d in (-1, 0, 1)]
        + [10_000, 99_999, 100_000]
        + [int(v) for v in rng.integers(81, 100_000, size=10)]
    ))
    checked = 0
    bad = []
    probe = uniform_points(64, seed=4)
    q_before = probe.oracle.query_count
    for n in ns:
        space = dk.WeightedMetricSpace.from_points(np.zeros((n, 1)))
        for k in (1, 2, 8, 64):
            if k > n:
                continue
            h = dk.build_partitions(space if n != 64 else probe, k)
            assert h.depth == depth_for(n, k)
            v = h.structure_violations()
            if v:
                bad.append((n, k, v[0]))
            checked += 1
    zero_queries = probe.oracle.query_count == q_before
    _report("C04 hierarchy structure",
            not bad and zero_queries and checked > 400,
            f"{checked} builds over {len(ns)} sizes up to 100000, "
            f"phase-one query delta zero: {zero_queries}",
            time.time() - t0, 10)


def test_c05_merge_bound_explicit_constant():
    t0 = time.time()
    instances = 0
    violations = []
    node_checks = 0
    for sp in _corpus(100, max_n=16, min_n=5, seed0=5000):
        if sp.n < 4:
            continue
        audit = audit_pipeline(sp, 2)
        instances += 1
        node_checks += len(audit.nodes)
        violations.extend(audit.violations)
    _report("C05 merge bound", instances == 100 and not violations,
            f"{instances} instances, {node_checks} internal nodes, "
            f"{len(violations)} violations",
            time.time() - t0, 180)


def test_c06_end_to_end_ratio():
    t0 = time.time()
    checked = 0
    violations = []
    for s, sp in enumerate(_corpus(60, max_n=14, min_n=4, seed0=6000)):
        k = 1 + s % 3
        if 2 * k > sp.n:
            continue
        audit = audit_pipeline(sp, k)
        checked += 1
        if not audit.passed:
            violations.extend(audit.violations)
            continue
        if audit.opt > 0 and not leq(audit.ratio, ENVELOPE(sp.n, k)):
            violations.append(
                f"n={sp.n} k={k}: ratio {audit.ratio:.4f} above envelope")
    _report("C06 end-to-end ratio", checked >= 40 and not violations,
            f"{checked} pipeline audits within chain bound and envelope",
            time.time() - t0, 300)


def test_c07_query_regression():
    t0 = time.time()
    queries = {}
    for k in (4, 16):
        for n in (256, 512, 1024, 2048, 4096):
            sp = uniform_points(n, seed=n * 31 + k)
            _, met = dk.hierarchical_cluster(sp, k)
            queries[(n, k)] = met.queries
    violations = []
    for (n, k), q in queries.items():
        bound = QUERY_CONSTANT_FROZEN * n * k * (math.log2(n / k) + 2)
        if q > bound:
            violations.append(f"(n={n},k={k}): {q} queries over {bound:.0f}")
    for k in (4, 16):
        for n in (256, 512, 1024, 2048):
            ratio = queries[(2 * n, k)] / queries[(n, k)]
            if ratio > 2.0 * DOUBLING_SLACK:
                violations.append(f"doubling {n}->{2*n} at k={k}: {ratio:.4f}")
    _report("C07 query regression", not violations,
            f"10 cells, max C = "
            f"{max(q / (n * k * (math.log2(n / k) + 2)) for (n, k), q in queries.items()):.3f}, "
            f"{len(violations)} violations",
            time.time() - t0, 300)


def test_c08_adversary_audits():
    t0 = time.time()
    cases = [(4096, 2, 1.0), (16384, 2, 1.0), (16384, 4, 2.0)]
    violations = []
    summaries = []
    for objective in ("median", "means"):
        for (n, k, delta) in cases:
            res = run_against(adversary_algorithm("hierarchical"), n, k, delta,
                              objective)
            a = res.audit
            if a.trivial_regime:
                violations.append(f"{objective} n={n}: unexpectedly trivial")
            violations.extend(f"{objective} n={n} k={k} d={delta}: {v}"
                              for v in a.violations)
            summaries.append(f"{objective[:3]}(n={n},k={k},d={delta:g}):r={a.r}")
    # exhaustive final-metric verification on a small run
    small = run_against(adversary_algorithm("hierarchical"), 256, 2, 1.0)
    violations.extend(f"n=256: {v}" for v in small.audit.violations)
    space = dk.WeightedMetricSpace.from_matrix(small.metric.matrix())
    report = dk.verify_metric(space, mode="exhaustive")
    if not report.ok:
        violations.append(
            f"n=256 final metric: {len(report.triangle_violations)} triangle / "
            f"{len(report.symmetry_violations)} symmetry violations")
    _report("C08 adversary audits", not violations,
            "; ".join(summaries) + f"; {len(violations)} violations",
            time.time() - t0, 600)


def test_c09_guha_structure_and_sparsifier():
    t0 = time.time()
    from detkmed.baselines import audit_guha_recursion, build_guha_partitions

    violations = []
    built = 0
    for n in (16, 64, 256, 1024, 4096):
        for k in (1, 2, 4, 8):
            for delta in (2.0, 4.0):
                if delta > max(2, n / k):
                    continue
                h = build_guha_partitions(n, k, delta)
                violations.extend(f"(n={n},k={k},d={delta}): {v}"
                                  for v in h.structure_violations())
                built += 1
    audited = 0
    for s, sp in enumerate(_corpus(12, max_n=12, min_n=8, seed0=9000)):
        k = 1 + s % 2
        spars = dk.hierarchical_cluster(sp, k)[1].sparsified
        inner = dk.local_search_kmedian(spars.view(), k, universe=spars.points)
        pi = {int(p): int(c) for p, c in zip(spars.points, inner.assignment)}
        rep = dk.audit_sparsifier(sp, spars.sigma, pi, k)
        violations.extend(f"sparsifier #{s}: {v}" for v in rep.violations)
        for level in audit_guha_recursion(sp, k, 2.0):
            violations.extend(f"recursion #{s}: {v}" for v in level.violations)
        audited += 1
    _report("C09 guha structure + sparsifier",
            built >= 30 and audited == 12 and not violations,
            f"{built} hierarchies, {audited} exact sparsifier audits, "
            f"{len(violations)} violations",
            time.time() - t0, 180)


def test_c10_determinism():
    t0 = time.time()
    sp_seed = 77
    issues = []
    for algo in ("hierarchical", "guha", "reverse-greedy", "local-search"):
        runs = []
        for _ in range(2):
            space = uniform_points(40, seed=sp_seed)
            sol, rec, _ = run_algorithm(algo, space, 3, delta=2.0)
            payload = rec.to_json_dict()
            payload.pop("wall_millis")
            runs.append((sol.centers, sol.assignment.tobytes(),
                         repr(sol.cost), payload))
        if runs[0] != runs[1]:
            issues.append(algo)
    r1 = run_against(adversary_algorithm("hierarchical"), 128, 2, 1.0)
    r2 = run_against(adversary_algorithm("hierarchical"), 128, 2, 1.0)
    t1, t2 = r1.session.transcript(), r2.session.transcript()
    if not all(np.array_equal(a, b) for a, b in zip(t1, t2)):
        issues.append("adversary transcript")
    if r1.solution.centers != r2.solution.centers:
        issues.append("adversary solution")
    _report("C10 determinism", not issues, f"issues: {issues or 'none'}",
            time.time() - t0, 120)
