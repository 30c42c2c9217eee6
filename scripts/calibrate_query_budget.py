#!/usr/bin/env python3
"""Pilot calibration for the query-count regression bounds.

Prints the measured constant Q / (n*k*(log2(n/k)+2)) for the main pipeline
over the regression grid, and Q / (n*k*delta*log2(n)^2) for the branching
baseline. The frozen constants pinned in the test suite were produced by this
script (main pipeline anchored at n=256, k=4, then given 25% headroom).
"""

import argparse
import math

from detkmed.generators import uniform_points
from detkmed.hierarchy import guha_hierarchical, hierarchical_cluster


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ns", default="256,512,1024,2048,4096")
    parser.add_argument("--ks", default="4,16")
    args = parser.parse_args()
    ns = [int(v) for v in args.ns.split(",")]
    ks = [int(v) for v in args.ks.split(",")]

    print("== hierarchical pipeline ==")
    print(f"{'n':>6} {'k':>4} {'queries':>10} {'C':>8} {'doubling':>9}")
    for k in ks:
        prev = None
        for n in ns:
            space = uniform_points(n, seed=n * 31 + k)
            _, metrics = hierarchical_cluster(space, k)
            phi = n * k * (math.log2(n / k) + 2)
            doubling = f"{metrics.queries / prev:.4f}" if prev else "-"
            print(f"{n:>6} {k:>4} {metrics.queries:>10} "
                  f"{metrics.queries / phi:>8.4f} {doubling:>9}")
            prev = metrics.queries

    print("\n== branching baseline ==")
    print(f"{'n':>6} {'k':>4} {'delta':>6} {'queries':>10} {'C-prime':>8}")
    for n in (64, 256, 1024):
        for k in (2, 4):
            for delta in (2.0, 4.0):
                if delta > n / k:
                    continue
                space = uniform_points(n, seed=n + k)
                _, metrics = guha_hierarchical(space, k, delta)
                cprime = metrics.queries / (n * k * delta * math.log2(n) ** 2)
                print(f"{n:>6} {k:>4} {delta:>6g} {metrics.queries:>10} {cprime:>8.4f}")


if __name__ == "__main__":
    main()
