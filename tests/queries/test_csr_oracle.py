"""The one CSR kernel against the bincount matvec it replaced.

The reference below is the former serial ``SparseBackend`` matvec, copied
verbatim with only the backend attributes it reads turned into arguments:
per-entry int64 row ids, then ``np.bincount`` over
``values * flat[indices]``.  It accumulates every row left to right in entry
order, the order a ``scipy.sparse.csr_matrix`` matvec uses, so the serial
``sparse`` answers must equal the reference bitwise, and so must every
``domain`` slice partial against the reference restricted to the slice's
entries.  The combined ``domain`` answers sum per-slice partials, so
against the whole-domain reference they keep a 1e-9 relative contract.

The workloads cover the counting query (a full-domain row), signed
fractional weights, one-hot marginals, and a query with an empty support.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.queries import sharded
from repro.queries.evaluation import WorkloadEvaluator
from repro.queries.linear import ProductQuery, TableQuery
from repro.queries.workload import Workload
from repro.relational.hypergraph import path3_query, two_table_query


# ---------------------------------------------------------------------- #
# the reference: the bincount matvecs, verbatim
# ---------------------------------------------------------------------- #
def bincount_answers(
    indptr: np.ndarray, indices: np.ndarray, values: np.ndarray, flat: np.ndarray
) -> np.ndarray:
    """The former serial ``SparseBackend.answers_on_histogram``."""
    row_ids = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    return np.bincount(row_ids, weights=values * flat[indices], minlength=indptr.size - 1)


def bincount_slice_partials(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    flat: np.ndarray,
    slices: list[tuple[int, int]],
) -> list[np.ndarray]:
    """The bincount matvec restricted to each ``[lo, hi)`` domain slice."""
    num_queries = indptr.size - 1
    row_ids = np.repeat(np.arange(num_queries, dtype=np.int64), np.diff(indptr))
    partials = []
    for lo, hi in slices:
        inside = (indices >= lo) & (indices < hi)
        partials.append(
            np.bincount(
                row_ids[inside],
                weights=values[inside] * flat[indices[inside]],
                minlength=num_queries,
            )
        )
    return partials


def packed_arrays(evaluator: WorkloadEvaluator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(indptr, indices, values)`` of an evaluator's query supports."""
    supports = [evaluator.query_support(index) for index in range(evaluator.num_queries)]
    indptr = np.concatenate(([0], np.cumsum([s[0].size for s in supports]))).astype(np.int64)
    return (
        indptr,
        np.concatenate([s[0] for s in supports]).astype(np.int64),
        np.concatenate([s[1] for s in supports]),
    )


def oracle_answers(evaluator: WorkloadEvaluator, flat: np.ndarray) -> np.ndarray:
    """The reference answers of ``evaluator``'s workload against ``flat``."""
    return bincount_answers(*packed_arrays(evaluator), np.asarray(flat, dtype=float).reshape(-1))


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
def _signed(query, rng, count: int) -> list[ProductQuery]:
    signed = []
    for index in range(count):
        tables = []
        for schema in query.relations:
            keep = rng.uniform(size=schema.shape) < 0.5
            tables.append(TableQuery(schema.name, keep * rng.uniform(-1.0, 1.0, schema.shape)))
        signed.append(ProductQuery(query, tables, name=f"signed{index}"))
    return signed


def _empty(query) -> ProductQuery:
    tables = [TableQuery.all_one(schema) for schema in query.relations]
    tables[0] = TableQuery(tables[0].relation_name, np.zeros(query.relations[0].shape))
    return ProductQuery(query, tables, name="empty")


def _workload(kind: str) -> Workload:
    rng = np.random.default_rng(sorted(WORKLOADS).index(kind))
    query = two_table_query(7, 5, 6) if kind != "path3" else path3_query(4, 3, 5, 3)
    marginals = Workload.attribute_marginals(query, query.attribute_names[1])
    if kind == "marginals":
        return marginals.extended(
            Workload.attribute_marginals(
                query, query.attribute_names[0], include_counting=False
            ).queries
        )
    # The counting query first, then signed weights, then the empty row
    # between the marginals so a shard boundary can land on either side.
    return marginals.extended([*_signed(query, rng, 9), _empty(query)]).extended(
        Workload.attribute_marginals(
            query, query.attribute_names[-1], include_counting=False
        ).queries
    )


WORKLOADS = ("marginals", "mixed", "path3")


@pytest.fixture(params=WORKLOADS)
def case(request):
    workload = _workload(request.param)
    rng = np.random.default_rng(41)
    flat = rng.uniform(-1.0, 3.0, workload.join_query.joint_domain_size)
    return workload, flat


def test_workloads_cover_the_required_rows():
    workload = _workload("mixed")
    evaluator = WorkloadEvaluator(workload, mode="sparse")
    sizes = [evaluator.support_size(index) for index in range(len(workload))]
    assert sizes[0] == workload.join_query.joint_domain_size  # counting
    assert 0 in sizes  # the empty support
    assert any(np.any(q.table_queries[0].weights < 0) for q in workload)


def test_serial_sparse_is_bitwise_the_bincount_matvec(case):
    workload, flat = case
    evaluator = WorkloadEvaluator(workload, mode="sparse")
    assert np.array_equal(
        evaluator.answers_on_histogram(flat), oracle_answers(evaluator, flat)
    )


@pytest.mark.parametrize("workers", [2, 3])
def test_domain_slice_partials_are_bitwise_the_slice_bincount(case, workers):
    workload, flat = case
    evaluator = WorkloadEvaluator(workload, mode="domain", workers=workers)
    try:
        backend = evaluator.backend
        slices = list(backend.slice_plan())
        reference = bincount_slice_partials(*packed_arrays(evaluator), flat, slices)
        # The parent holds the same worker state the pool forks from, so each
        # slice's partial can be evaluated in-process against its segment.
        for lo, hi, view in backend._slice_views():
            view[:] = flat[lo:hi]
        for shard_id, expected in enumerate(reference):
            assert np.array_equal(
                sharded._eval_shard_impl(backend._key, shard_id), expected
            ), shard_id
        # The pool sums the same partials in slice order.
        combined = np.zeros(len(workload))
        for partial in reference:
            combined += partial
        assert np.array_equal(evaluator.answers_on_histogram(flat), combined)
    finally:
        evaluator.close()


@pytest.mark.parametrize("workers", [2, 3])
def test_domain_answers_within_1e9_of_the_bincount_matvec(case, workers):
    workload, flat = case
    evaluator = WorkloadEvaluator(workload, mode="domain", workers=workers)
    try:
        reference = oracle_answers(evaluator, flat)
        scale = max(1.0, float(np.abs(reference).max()))
        answers = evaluator.answers_on_histogram(flat)
        assert np.max(np.abs(answers - reference)) <= 1e-9 * scale
    finally:
        evaluator.close()
