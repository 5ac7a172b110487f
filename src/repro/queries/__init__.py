"""Linear-query workloads over multi-table joins.

A linear query in the paper is a tuple ``q = (q_1, ..., q_m)`` with one weight
function ``q_i : D_i -> [-1, +1]`` per relation; its answer is the weighted
join size ``Σ_t ρ(t)·Π_i q_i(t_i)·R_i(t_i)``.  This subpackage provides the
query objects, standard workload families (counting, predicates, marginals,
ranges, random signs), and exact evaluation against both instances and
released synthetic datasets through four evaluation backends (dense /
sparse CSR / domain-partitioned / streaming).
"""

from repro.queries.linear import ProductQuery, TableQuery, all_one_query, counting_query
from repro.queries.workload import Workload
from repro.queries.backends import (
    ArrayHistogramSession,
    EvaluationBackend,
    EvaluatorConfig,
    EvaluatorContext,
    HistogramSeed,
    HistogramSession,
)
from repro.queries.evaluation import (
    ErrorReport,
    WorkloadEvaluator,
    auto_evaluator_mode,
    get_default_backend,
    max_error,
    set_default_backend,
    shared_evaluator,
)
from repro.queries.vectorized import PackedWorkload

__all__ = [
    "ArrayHistogramSession",
    "ErrorReport",
    "EvaluationBackend",
    "EvaluatorConfig",
    "EvaluatorContext",
    "HistogramSeed",
    "HistogramSession",
    "PackedWorkload",
    "ProductQuery",
    "TableQuery",
    "Workload",
    "WorkloadEvaluator",
    "all_one_query",
    "auto_evaluator_mode",
    "counting_query",
    "get_default_backend",
    "max_error",
    "set_default_backend",
    "shared_evaluator",
]
