"""Weighted metric spaces, distance oracles with query accounting, clustering
objectives, and the brute-force optimum used as the testing oracle."""

from __future__ import annotations

import itertools
import math
import numbers
import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Global comparison tolerances: relative 1e-9 with absolute floor 1e-12.
# The audited inequalities are exact in real arithmetic; the tolerance only
# absorbs float rounding.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Elements per temporary (2 MB of float64) in the chunked scans of the swap
# table, reverse greedy's second-nearest refresh and the point kernel: bounds
# their working memory and keeps each chunk's passes in cache.
_SCAN_CHUNK = 1 << 18


def leq(a: float, b: float) -> bool:
    """a <= b up to the global tolerance."""
    return a <= b + max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


class MetricInputError(ValueError):
    """Malformed or non-metric input data."""


class EnumerationBudgetError(RuntimeError):
    """Raised by opt_bruteforce when the subset count exceeds its budget."""


class Objective(str, Enum):
    MEDIAN = "median"
    MEANS = "means"
    NORMALIZED_MEANS = "normalized-means"

    def point_cost(self, d: np.ndarray) -> np.ndarray:
        """Per-point contribution before weighting: d for median, d^2 otherwise."""
        if self is Objective.MEDIAN:
            return d
        return d * d

    def finalize(self, total: float) -> float:
        if self is Objective.NORMALIZED_MEANS:
            return math.sqrt(total)
        return total

    def total(self, w: np.ndarray, d: np.ndarray) -> float:
        """Objective value of distances d under weights w. Every cost is
        formed here; one that overflows float64 is an input error."""
        value = self.finalize(float(np.dot(w, self.point_cost(d))))
        if not math.isfinite(value):
            raise MetricInputError("cost overflows float64")
        return value


def as_objective(obj: "Objective | str") -> Objective:
    return obj if isinstance(obj, Objective) else Objective(obj)


def check_cost_bound(space: "WeightedMetricSpace", objective: "Objective | str") -> None:
    """No cost exceeds sum(w) times the oracle's diameter bound under the
    objective, so an input whose bound overflows float64 raises
    MetricInputError here, before the first query."""
    with np.errstate(over="ignore", invalid="ignore"):
        as_objective(objective).total(space.weights.sum(keepdims=True),
                                      np.array([space.oracle.diameter_bound()]))


def check_k(k, hi: float = math.inf, name: str = "k") -> int:
    """k as an int after checking it is an integer (bool is not) in [1, hi]."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise MetricInputError(f"{name} must be an integer, got {k!r}")
    if not 1 <= k <= hi:
        raise MetricInputError(f"{name} must lie in [1, {hi}], got {k}")
    return int(k)


class DistanceOracle:
    """Base distance oracle. The query counter increments once per requested
    pair; caching by callers is their own business. Counter increments are
    lock-guarded so read-only sharing across threads never loses counts."""

    # oracles whose answers depend on query order (a live adversary) refuse
    # whole-space scans like aspect_ratio and exhaustive verification
    stable_metric = True

    def __init__(self, n: int):
        if n < 1:
            raise MetricInputError("space must contain at least one point")
        self._n = int(n)
        self._count = 0
        self._lock = threading.Lock()

    @property
    def n(self) -> int:
        return self._n

    @property
    def query_count(self) -> int:
        return self._count

    def _bump(self, amount: int) -> None:
        with self._lock:
            self._count += amount

    def distance(self, i: int, j: int) -> float:
        """One pair, counted once, from the same kernel as pairwise."""
        self._bump(1)
        return float(self._pairwise(np.array([i], dtype=np.int64),
                                    np.array([j], dtype=np.int64))[0, 0])

    def pairwise(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Distances for every (row, col) pair; counts len(rows)*len(cols)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        self._bump(rows.size * cols.size)
        return self._pairwise(rows, cols)

    def _pairwise(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The oracle's one distance kernel: a len(rows) x len(cols) block."""
        raise NotImplementedError


class MatrixOracle(DistanceOracle):
    """Explicit n x n distance matrix. Must be symmetric with zero diagonal."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise MetricInputError("not a metric: distance matrix must be square")
        if not np.all((matrix >= 0) & (matrix < np.inf)):
            raise MetricInputError("not a metric: negative or non-finite distance entry")
        if np.any(np.diag(matrix) != 0.0):
            raise MetricInputError("not a metric: nonzero diagonal entry")
        if not np.array_equal(matrix, matrix.T):
            raise MetricInputError("not a metric: asymmetric distance matrix")
        super().__init__(matrix.shape[0])
        self._m = matrix
        self._diameter = float(matrix.max())

    def _pairwise(self, rows, cols):
        return self._m[np.ix_(rows, cols)]

    def diameter_bound(self) -> float:
        """No distance exceeds this: the largest entry, kept from construction."""
        return self._diameter


class PointsOracle(DistanceOracle):
    """Point set under an l1 or l2 norm."""

    def __init__(self, points: np.ndarray, norm: str = "l2"):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
        if norm not in ("l1", "l2"):
            raise MetricInputError(f"unknown norm {norm!r}")
        if not np.isfinite(points).all():
            raise MetricInputError("point coordinates must be finite")
        super().__init__(points.shape[0])
        self._p = points
        self.norm = norm
        if not math.isfinite(self.diameter_bound()):
            # no pair distance exceeds the bound, so every distance is finite
            raise MetricInputError("bounding-box diagonal overflows float64")

    @property
    def points(self) -> np.ndarray:
        return self._p

    def diameter_bound(self) -> float:
        """No distance exceeds this: the bounding box's diagonal in the
        kernel's own arithmetic; the constructor rejects a point set where it
        overflows. Makes no query and raises no warning."""
        # one contiguous row per coordinate: axis 0 of a thin n x dim array reduces ~10x slower
        cols = np.ascontiguousarray(self._p.T)
        with np.errstate(over="ignore"):
            span = cols.max(axis=1) - cols.min(axis=1)
            return float(span.sum() if self.norm == "l1" else np.sqrt((span * span).sum()))

    def _pairwise(self, rows, cols):
        out = np.empty((rows.size, cols.size))
        b = self._p[cols]
        # chunk rows so n^2 requests never materialize a (n, n, dim) tensor
        step = max(1, _SCAN_CHUNK // max(1, cols.size * self._p.shape[1]))
        for lo in range(0, rows.size, step):
            a = self._p[rows[lo : lo + step]]
            diff = a[:, None, :] - b[None, :, :]
            if self.norm == "l1":
                out[lo : lo + step] = np.abs(diff).sum(axis=2)
            else:
                out[lo : lo + step] = np.sqrt((diff * diff).sum(axis=2))
        return out


@dataclass
class WeightedMetricSpace:
    """A weighted metric space: points are the indices 0..n-1, weights are
    nonnegative reals, distances come from the oracle."""

    oracle: DistanceOracle
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (self.oracle.n,):
            raise MetricInputError("weight vector length must equal point count")
        if not np.all((self.weights >= 0) & (self.weights < np.inf)):
            raise MetricInputError("weights must be finite and nonnegative")

    @classmethod
    def from_matrix(cls, matrix, weights=None) -> "WeightedMetricSpace":
        oracle = MatrixOracle(matrix)
        w = np.ones(oracle.n) if weights is None else weights
        return cls(oracle, w)

    @classmethod
    def from_points(cls, points, weights=None, norm="l2") -> "WeightedMetricSpace":
        oracle = PointsOracle(points, norm=norm)
        w = np.ones(oracle.n) if weights is None else weights
        return cls(oracle, w)

    @property
    def n(self) -> int:
        return self.oracle.n

    def all_points(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)

    def with_weights(self, weights) -> "WeightedMetricSpace":
        """View of the same points and oracle (shared counter) with new weights."""
        return WeightedMetricSpace(self.oracle, weights)

    def distance(self, i: int, j: int) -> float:
        return self.oracle.distance(i, j)

    def pairwise(self, rows, cols) -> np.ndarray:
        return self.oracle.pairwise(rows, cols)


@dataclass(eq=False)
class Solution:
    """An ordered center set with the nearest-center assignment over the
    universe it was built for and the cached objective value."""

    centers: tuple[int, ...]
    assignment: np.ndarray
    cost: float
    objective: Objective
    universe: np.ndarray


def _index_array(ids, n: int, name: str) -> np.ndarray:
    arr = np.asarray(ids, dtype=np.int64).ravel()
    if arr.size == 0:
        raise MetricInputError(f"{name} must be nonempty")
    if arr.min() < 0 or arr.max() >= n:
        raise MetricInputError(f"{name} contains out-of-range point ids")
    return arr


def _universe(space: WeightedMetricSpace, universe, objective=None) -> np.ndarray:
    """The universe's ids, all points when None. Every entry point that forms a
    cost resolves its universe here, after check_cost_bound, before any query."""
    if objective is not None:
        check_cost_bound(space, objective)
    return space.all_points() if universe is None else _index_array(universe, space.n, "universe")


def _sweep(space: WeightedMetricSpace, centers, universe, distances=None, objective=None):
    """The nearest-center sweep over one |U| x |S| block, rows in universe
    order and columns in the given center order: requested, unless the
    caller already holds it as `distances`. Returns the universe, the column
    of each point's nearest center (ties to the first column) and its
    distance."""
    if centers is None or len(centers) == 0:
        raise MetricInputError("empty solution")
    S = _index_array(centers, space.n, "centers")
    U = _universe(space, universe, objective)
    D = space.pairwise(U, S) if distances is None else distances
    idx = np.argmin(D, axis=1)
    return U, idx, D[np.arange(U.size), idx]


def cost(space: WeightedMetricSpace, centers, universe=None,
         objective: Objective | str = Objective.MEDIAN) -> float:
    """cost(S, U) = sum over x in U of w(x) * obj(d(x, S)).

    Queries the oracle exactly |S| * |U| times.
    """
    U, _, dmin = _sweep(space, centers, universe, objective=objective)
    return as_objective(objective).total(space.weights[U], dmin)


def assign_nearest(space: WeightedMetricSpace, centers, universe=None,
                   distances=None) -> np.ndarray:
    """Nearest center id for each universe point; ties go to the smallest
    point index. Queries |S| * |U|, or nothing when `distances` already holds
    that block with the centers ascending."""
    S = np.unique(np.asarray(centers, dtype=np.int64))
    _, idx, _ = _sweep(space, S, universe, distances)
    return S[idx]


def build_solution(space: WeightedMetricSpace, centers, objective: Objective | str = Objective.MEDIAN,
                   universe=None) -> Solution:
    """Assemble a Solution (assignment + cached cost) with one |S|*|U| sweep."""
    obj = as_objective(objective)
    given = tuple(int(c) for c in centers)
    S = np.unique(np.asarray(given, dtype=np.int64))
    U, idx, dmin = _sweep(space, S, universe, objective=obj)
    return Solution(given, S[idx], obj.total(space.weights[U], dmin), obj, U)


def mapping_cost(space: WeightedMetricSpace, assign, members, weights,
                 objective: Objective | str = Objective.MEDIAN) -> float:
    """Cost of mapping each member x to assign[x] under the given weights.
    One distance request per member, in member order."""
    d = np.array([space.distance(int(x), int(assign[x])) for x in members])
    return as_objective(objective).total(weights[members], d)


def project(space: WeightedMetricSpace, A, B) -> tuple[int, ...]:
    """Projection pi(A, B): for each a in A its nearest point of B (ties to the
    smallest index), returned as an ascending tuple without duplicates."""
    return tuple(int(v) for v in np.unique(assign_nearest(space, B, universe=A)))


def opt_bruteforce(space: WeightedMetricSpace, k: int, universe=None, candidates=None,
                   objective: Objective | str = Objective.MEDIAN,
                   budget: int = 10_000_000) -> tuple[float, tuple[int, ...]]:
    """Exact OPT_k(U, X) by enumerating all size-k subsets of X.

    Returns the optimum cost and the lexicographically smallest achieving set.
    """
    obj = as_objective(objective)
    U = _universe(space, universe, obj)
    X = np.unique(U if candidates is None else _index_array(candidates, space.n, "candidates"))
    k = check_k(k, X.size)
    if math.comb(X.size, k) > budget:
        raise EnumerationBudgetError("instance too large for oracle")
    D = space.pairwise(U, X)
    w = space.weights[U]
    best_cost = math.inf
    best_set: tuple[int, ...] = ()
    for combo in itertools.combinations(range(X.size), k):
        c = obj.total(w, D[:, combo].min(axis=1))
        if c < best_cost:
            best_cost = c
            best_set = combo
    return best_cost, tuple(int(X[i]) for i in best_set)


def aspect_ratio(space: WeightedMetricSpace) -> float:
    """Ratio of the maximum and minimum nonzero distances."""
    if not space.oracle.stable_metric:
        raise MetricInputError(
            "aspect ratio is only defined on a finalized metric")
    U = space.all_points()
    dmax = 0.0
    dmin = math.inf
    step = max(1, 4_000_000 // space.n)
    for lo in range(0, space.n, step):
        block = space.pairwise(U[lo : lo + step], U)
        nz = block[block > 0]
        if nz.size:
            dmax = max(dmax, float(nz.max()))
            dmin = min(dmin, float(nz.min()))
    if not math.isfinite(dmin) or dmax == 0.0:
        raise MetricInputError("degenerate space")
    return dmax / dmin


@dataclass
class MetricReport:
    n: int
    mode: str
    diagonal_violations: list = field(default_factory=list)
    symmetry_violations: list = field(default_factory=list)
    triangle_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.diagonal_violations or self.symmetry_violations
                    or self.triangle_violations)


def verify_metric(space: WeightedMetricSpace, mode: str = "exhaustive",
                  samples: int = 2000, seed: int = 0) -> MetricReport:
    """Check symmetry, zero diagonal, and the triangle inequality.

    Exhaustive mode (n <= 1024) checks every pair and triple; sampled mode
    draws `samples` random pairs and triples. Violations are report content,
    not errors.
    """
    n = space.n
    report = MetricReport(n=n, mode=mode)
    if not space.oracle.stable_metric:
        raise MetricInputError(
            "metric verification is only defined on a finalized metric")
    if mode == "exhaustive":
        if n > 1024:
            raise MetricInputError("exhaustive verification requires n <= 1024")
        U = space.all_points()
        D = space.pairwise(U, U)
        for i in np.nonzero(np.diag(D) != 0.0)[0]:
            report.diagonal_violations.append(int(i))
        asym = np.argwhere(np.abs(D - D.T) > np.maximum(ABS_TOL, REL_TOL * np.maximum(np.abs(D), np.abs(D.T))))
        for i, j in asym:
            if i < j:
                report.symmetry_violations.append((int(i), int(j)))
        for y in range(n):
            rhs = D[:, y][:, None] + D[y, :][None, :]
            slack = np.maximum(ABS_TOL, REL_TOL * np.maximum(D, rhs))
            bad = np.argwhere(D > rhs + slack)
            for x, z in bad:
                report.triangle_violations.append((int(x), int(y), int(z)))
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            i, j = (int(v) for v in rng.integers(0, n, size=2))
            dij = space.distance(i, j)
            dji = space.distance(j, i)
            if i == j and dij != 0.0:
                report.diagonal_violations.append(i)
            if not close(dij, dji):
                report.symmetry_violations.append((i, j))
        for _ in range(samples):
            x, y, z = (int(v) for v in rng.integers(0, n, size=3))
            dxz = space.distance(x, z)
            rhs = space.distance(x, y) + space.distance(y, z)
            if dxz > rhs + max(ABS_TOL, REL_TOL * max(dxz, rhs)):
                report.triangle_violations.append((x, y, z))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return report
