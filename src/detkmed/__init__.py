"""Deterministic metric k-median/k-means clustering toolkit."""

from . import generators, harness, io
from .adversary import (
    AdversaryOracle,
    AdversarySession,
    FinalMetric,
    QueryBudgetExceededError,
    audit_session,
    run_against,
)
from .baselines import (
    audit_sparsifier,
    build_guha_partitions,
    guha_hierarchical,
    local_search_kmedian,
)
from .greedy import (
    BoundCertificate,
    GreedyState,
    audit_certificate,
    naive_reverse_greedy,
    res_greedy,
    res_greedy_batch,
)
from .hierarchy import (
    PartitionHierarchy,
    SparsifiedSpace,
    audit_pipeline,
    build_partitions,
    extract_k,
    hierarchical_cluster,
    phase2,
    sparsify,
)
from .metric import (
    DistanceOracle,
    EnumerationBudgetError,
    MatrixOracle,
    MetricInputError,
    Objective,
    PointsOracle,
    Solution,
    WeightedMetricSpace,
    aspect_ratio,
    assign_nearest,
    build_solution,
    cost,
    opt_bruteforce,
    project,
    verify_metric,
)

__version__ = "0.1.0"
