"""The ``sparse`` session keeps its answers current incrementally.

Oracle: the bincount matvec of ``test_csr_oracle``.  Each run drives one
incremental session through hundreds of random histogram ops (support
rescales on sorted supports, uniform rescales, fills, totals) and mirrors
every op on a plain reference array.  After each op the session's histogram
must equal the reference bitwise, and its maintained answers must agree
with a fresh oracle evaluation of the reference to 1e-9 relative.  The workloads
include the all-ones counting query (a delta over it is costlier than a
full recompute, so the session drops its cache) and negative weights.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.queries.vectorized as vectorized
from repro.queries.evaluation import WorkloadEvaluator
from repro.queries.linear import ProductQuery, TableQuery
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query
from tests.queries.test_csr_oracle import oracle_answers

OPS = 500
RTOL = 1e-9


def _random_workload(seed: int) -> Workload:
    """Counting + ±1 signs (full domain) + marginals + sparse signed weights."""
    rng = np.random.default_rng(seed)
    query = two_table_query(7, 5, 6)
    workload = Workload.random_sign(query, 1, rng=rng).extended(
        Workload.attribute_marginals(query, "A", include_counting=False).queries
    )
    signed = []
    for index in range(12):
        tables = []
        for schema in query.relations:
            keep = rng.uniform(size=schema.shape) < 0.5
            tables.append(TableQuery(schema.name, keep * rng.uniform(-1.0, 1.0, schema.shape)))
        signed.append(ProductQuery(query, tables, name=f"signed{index}"))
    return workload.extended(signed)


@pytest.fixture
def delta_calls(monkeypatch):
    """Count the incremental deltas the session actually applies."""
    calls = []
    original = vectorized.ColumnView.matvec

    def counted(self, starts, counts, deltas):
        calls.append(int(counts.sum()))
        return original(self, starts, counts, deltas)

    monkeypatch.setattr(vectorized.ColumnView, "matvec", counted)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_ops_track_the_sparse_oracle(seed, delta_calls):
    workload = _random_workload(seed)
    rng = np.random.default_rng(100 + seed)
    domain_size = workload.join_query.joint_domain_size
    evaluator = WorkloadEvaluator(workload, mode="sparse")
    supports = [evaluator.query_support(index)[0] for index in range(len(workload))]
    assert supports[0].size == domain_size  # the counting query
    reference = rng.uniform(0.5, 2.0, domain_size)
    session = evaluator.histogram_session(reference)
    kinds = []
    try:
        for _ in range(OPS):
            kind = rng.choice(
                ["support", "cells", "scale", "fill", "total"], p=[0.4, 0.25, 0.15, 0.05, 0.15]
            )
            kinds.append(kind)
            if kind in ("support", "cells"):
                if kind == "support":
                    cells = supports[int(rng.integers(len(supports)))]
                else:
                    size = int(rng.integers(1, domain_size // 4))
                    cells = np.sort(rng.choice(domain_size, size=size, replace=False))
                factors = np.exp(rng.uniform(-1.0, 1.0, cells.size))
                session.scale_support(cells, factors)
                reference[cells] *= factors
            elif kind == "scale":
                factor = float(np.exp(rng.uniform(-1.0, 1.0)))
                session.scale(factor)
                reference *= factor
            elif kind == "fill":
                value = float(rng.uniform(0.5, 2.0))
                session.fill(value)
                reference.fill(value)
            else:
                assert session.total() == float(reference.sum())
            # The session's private array: this test checks the storage itself.
            assert np.array_equal(session._array, reference)
            expected = oracle_answers(evaluator, reference)
            scale = max(1.0, float(np.abs(expected).max()))
            assert np.max(np.abs(session.answers() - expected)) <= RTOL * scale
    finally:
        session.close()
    # Both delta paths ran: incremental deltas, and the counting query's
    # full-domain delta, which drops the cache instead of gathering.
    assert len(delta_calls) > OPS // 4
    total_entries = evaluator.backend.packed_workload().total_entries
    assert all(2 * entries <= total_entries for entries in delta_calls)
    assert "fill" in kinds


def test_delta_before_first_answers_recomputes_exactly():
    workload = _random_workload(3)
    rng = np.random.default_rng(7)
    flat = rng.random(workload.join_query.joint_domain_size)
    evaluator = WorkloadEvaluator(workload, mode="sparse")
    session = evaluator.histogram_session(flat)
    try:
        cells = np.array([1, 4, 9], dtype=np.int64)
        session.scale_support(cells, np.full(3, 0.5))
        flat[cells] *= 0.5
        # No answers were cached yet, so this is one full matvec: bitwise.
        assert np.array_equal(session.answers(), oracle_answers(evaluator, flat))
    finally:
        session.close()


def test_column_view_is_built_once_per_workload():
    workload = _random_workload(4)
    first = WorkloadEvaluator(workload, mode="sparse")
    second = WorkloadEvaluator(workload, mode="sparse")
    flat = np.ones(workload.join_query.joint_domain_size)
    for evaluator in (first, second):
        evaluator.histogram_session(flat).close()
    columns = workload.private_cache("vectorized")["columns"]
    assert first.backend._ensure_columns() is columns
    assert second.backend._ensure_columns() is columns
    packed = first.backend.packed_workload()
    dtypes = {columns.order.dtype, columns.rows.dtype, columns.indptr.dtype}
    assert dtypes == {np.dtype(np.int32)}
    assert columns.indptr.size == workload.join_query.joint_domain_size + 1
    # Grouped by cell, each group in query order: a stable argsort.
    assert np.array_equal(columns.order, np.argsort(packed.indices, kind="stable"))
    rows = np.repeat(np.arange(packed.num_queries), np.diff(packed.indptr))
    assert np.array_equal(columns.rows, rows[columns.order])


@pytest.mark.parametrize("workers", [2, 3])
def test_domain_session_tracks_the_sparse_session(workers):
    """Same ops on both: bitwise histograms, answers within 1e-9 relative."""
    workload = _random_workload(5)
    rng = np.random.default_rng(workers)
    domain_size = workload.join_query.joint_domain_size
    serial = WorkloadEvaluator(workload, mode="sparse")
    domain = WorkloadEvaluator(workload, mode="domain", workers=workers)
    supports = [serial.query_support(index)[0] for index in range(len(workload))]
    initial = rng.uniform(0.5, 2.0, domain_size)
    sessions = [serial.histogram_session(initial), domain.histogram_session(initial)]
    try:
        for _ in range(OPS // 5):
            kind = rng.choice(["support", "scale", "fill"], p=[0.8, 0.15, 0.05])
            if kind == "support":
                cells = supports[int(rng.integers(len(supports)))]
                factors = np.exp(rng.uniform(-1.0, 1.0, cells.size))
                for session in sessions:
                    session.scale_support(cells, factors)
            elif kind == "scale":
                factor = float(np.exp(rng.uniform(-1.0, 1.0)))
                for session in sessions:
                    session.scale(factor)
            else:
                for session in sessions:
                    session.fill(1.0)
            expected = sessions[0].answers()
            scale = max(1.0, float(np.abs(expected).max()))
            assert np.max(np.abs(sessions[1].answers() - expected)) <= RTOL * scale
            slices = np.concatenate(
                [view for _lo, _hi, view in domain.backend._slice_views()]
            )
            assert np.array_equal(sessions[0]._array, slices)
    finally:
        for session in sessions:
            session.close()
        domain.close()
