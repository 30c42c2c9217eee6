#!/usr/bin/env python3
"""Approximation-ratio study on brute-forceable instances: compare the main
pipeline against the branching baseline, plain reverse greedy, and local
search, with exact optima. Writes a CSV when --out is given."""

import argparse
import csv
import sys

from detkmed.generators import clustered_points, random_matrix, uniform_points
from detkmed.harness import attach_ratio, run_algorithm

GENS = {
    "uniform": lambda n, seed: uniform_points(n, seed=seed),
    "clustered": lambda n, seed: clustered_points(n, clusters=3, spread=0.05, seed=seed),
    "matrix": lambda n, seed: random_matrix(n, seed=seed),
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=14)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--out")
    args = parser.parse_args()

    rows = []
    for gen_name, gen in GENS.items():
        for seed in range(args.seeds):
            for algo in ("hierarchical", "guha", "reverse-greedy", "local-search"):
                space = gen(args.n, seed)
                _, rec, _ = run_algorithm(algo, space, args.k, delta=2.0,
                                          instance=f"{gen_name}-{seed}")
                rec = attach_ratio(rec, space, args.k)
                rows.append(rec)

    by_algo = {}
    for rec in rows:
        by_algo.setdefault(rec.algorithm, []).append(rec.ratio or 1.0)
    print(f"{'algorithm':>16} {'mean ratio':>11} {'max ratio':>10} {'runs':>5}")
    for algo, ratios in by_algo.items():
        print(f"{algo:>16} {sum(ratios) / len(ratios):>11.4f} "
              f"{max(ratios):>10.4f} {len(ratios):>5}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm", "instance", "n", "k", "cost", "ratio",
                             "queries", "wall_millis"])
            for rec in rows:
                writer.writerow([rec.algorithm, rec.instance, rec.n, rec.k,
                                 rec.cost, rec.ratio, rec.queries, rec.wall_millis])
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
