"""Seeded instance generators. Generators take explicit seeds; every
algorithm in the package is seed-free, so runs are reproducible end to end."""

from __future__ import annotations

import inspect

import numpy as np

from .metric import MetricInputError, WeightedMetricSpace


def uniform_points(n: int, dim: int = 2, extent: float = 1.0, seed: int = 0,
                   norm: str = "l2", unit_weights: bool = True) -> WeightedMetricSpace:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, extent, size=(n, dim))
    w = np.ones(n) if unit_weights else rng.uniform(0.5, 2.0, size=n)
    return WeightedMetricSpace.from_points(pts, w, norm=norm)


def clustered_points(n: int, clusters: int = 4, spread: float = 0.05,
                     extent: float = 1.0, dim: int = 2, seed: int = 0,
                     norm: str = "l2", unit_weights: bool = True) -> WeightedMetricSpace:
    if clusters < 1:
        raise MetricInputError("need at least one cluster")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, extent, size=(clusters, dim))
    assign = np.arange(n) % clusters
    pts = centers[assign] + rng.normal(0.0, spread, size=(n, dim))
    w = np.ones(n) if unit_weights else rng.uniform(0.5, 2.0, size=n)
    return WeightedMetricSpace.from_points(pts, w, norm=norm)


def metric_closure(matrix: np.ndarray) -> np.ndarray:
    """Shortest-path closure; repairs triangle violations of a symmetric
    nonnegative matrix without rejection sampling."""
    D = np.asarray(matrix, dtype=np.float64).copy()
    np.fill_diagonal(D, 0.0)
    n = D.shape[0]
    for mid in range(n):
        np.minimum(D, D[:, mid, None] + D[None, mid, :], out=D)
    return D


def random_matrix(n: int, seed: int = 0, low: float = 0.2, high: float = 10.0,
                  unit_weights: bool = True) -> WeightedMetricSpace:
    rng = np.random.default_rng(seed)
    raw = rng.uniform(low, high, size=(n, n))
    sym = np.triu(raw, 1)
    sym = sym + sym.T
    repaired = metric_closure(sym)
    w = np.ones(n) if unit_weights else rng.uniform(0.5, 2.0, size=n)
    return WeightedMetricSpace.from_matrix(repaired, w)


GENERATORS = {
    "uniform-points": uniform_points,
    "clustered-points": clustered_points,
    "random-matrix": random_matrix,
}


def make_instance(kind: str, n: int, seed: int | None = None, /,
                  **params) -> WeightedMetricSpace:
    """Generator `kind` on n points. The seed (default 0) comes third or as
    `seed=`, not both; any other key of `params` the generator does not take
    is an input error, not a TypeError."""
    if kind not in GENERATORS:
        raise MetricInputError(f"unknown generator {kind!r}")
    gen = GENERATORS[kind]
    if seed is not None and "seed" in params:
        raise MetricInputError("seed given both as an argument and as a parameter")
    seed = params.pop("seed", 0 if seed is None else seed)
    takes = [p for p in inspect.signature(gen).parameters if p not in ("n", "seed")]
    unknown = sorted(set(params) - set(takes))
    if unknown:
        raise MetricInputError(f"{kind} takes no parameter {', '.join(unknown)}; "
                               f"it takes {', '.join(takes)}")
    return gen(n, seed=seed, **params)
