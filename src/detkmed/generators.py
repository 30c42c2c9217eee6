"""Seeded instance generators. Generators take explicit seeds; every
algorithm in the package is seed-free, so runs are reproducible end to end."""

from __future__ import annotations

import inspect
import numbers

import numpy as np

from .metric import MetricInputError, WeightedMetricSpace, check_k


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
    """Generator `kind` on n >= 1 points, seeded by a nonnegative integer
    (default 0) given third or as `seed=`, not both. A key of `params` the
    generator does not take, or a value not of its default's type or out of
    range, is an input error (the generator functions check no ranges)."""
    if kind not in GENERATORS:
        raise MetricInputError(f"unknown generator {kind!r}")
    gen = GENERATORS[kind]
    if seed is not None and "seed" in params:
        raise MetricInputError("seed given both as an argument and as a parameter")
    seed = params.pop("seed", 0 if seed is None else seed)
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise MetricInputError(f"seed must be a nonnegative integer, got {seed!r}")
    defaults = inspect.signature(gen).parameters
    takes = [p for p in defaults if p not in ("n", "seed")]
    unknown = sorted(set(params) - set(takes))
    if unknown:
        raise MetricInputError(f"{kind} takes no parameter {', '.join(unknown)}; "
                               f"it takes {', '.join(takes)}")
    for key, val in params.items():
        want = type(defaults[key].default)
        # an int passes for a float or a bool, and numpy numbers pass
        cls = {float: numbers.Real, int: numbers.Integral, bool: numbers.Integral}.get(want, want)
        if not isinstance(val, cls):
            raise MetricInputError(f"{kind} parameter {key} must be {want.__name__}, got {val!r}")
    vals = {key: p.default for key, p in defaults.items()} | params
    for key in ("extent", "spread", "low", "high"):
        if key in vals and not 0 <= vals[key] < np.inf:
            raise MetricInputError(f"{kind} parameter {key} must be finite and at least 0, "
                                   f"got {vals[key]!r}")
    if vals.get("dim", 1) < 1:
        raise MetricInputError(f"{kind} parameter dim must be at least 1, got {vals['dim']!r}")
    if vals.get("low", 0) > vals.get("high", 0):
        raise MetricInputError(f"{kind}: low {vals['low']!r} exceeds high {vals['high']!r}")
    return gen(check_k(n, name="n"), seed=seed, **params)
