"""The CSR backend (``sparse``): packing, caching, shard kernels.

Bitwise answer parity with the bincount matvec the backend replaced lives
in ``test_csr_oracle``; the incremental session in
``test_incremental_session``.
"""

from __future__ import annotations

import numpy as np

import repro.queries.vectorized as vectorized
from repro.queries.evaluation import WorkloadEvaluator, shared_evaluator
from repro.queries.vectorized import ColumnView, PackedWorkload
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query
from tests.queries.test_csr_oracle import _workload as oracle_workload
from tests.queries.test_csr_oracle import oracle_answers


def _mixed_workload(seed: int = 0) -> Workload:
    query = two_table_query(5, 4, 6)
    workload = Workload.attribute_marginals(query, "B")
    return workload.extended(
        Workload.random_predicates(
            query, 3, selectivity=0.4, seed=seed, include_counting=False
        ).queries
    )


class TestPackedWorkload:
    def _packed(self):
        indptr = np.array([0, 2, 5, 5, 9])
        indices = np.array([4, 1, 0, 2, 3, 5, 6, 7, 1])
        values = np.arange(1.0, 10.0)
        return PackedWorkload(indptr, indices, values), indptr, indices, values

    def test_query_slices_roundtrip_zero_copy(self):
        packed, indptr, indices, values = self._packed()
        assert packed.num_queries == 4
        assert packed.total_entries == 9
        for index in range(packed.num_queries):
            lo, hi = indptr[index], indptr[index + 1]
            got_indices, got_values = packed.query_slice(index)
            assert np.array_equal(got_indices, indices[lo:hi])
            assert np.array_equal(got_values, values[lo:hi])
            assert got_indices.base is packed.indices  # views, not copies

    def test_matrix_rows_are_the_query_supports(self):
        workload = _mixed_workload()
        evaluator = WorkloadEvaluator(workload, mode="sparse")
        dense = WorkloadEvaluator(workload, mode="dense")
        matrix = evaluator.backend.packed_workload().matrix(evaluator.domain_size)
        assert matrix.shape == (len(workload), evaluator.domain_size)
        rows = matrix.toarray()
        for index in range(len(workload)):
            expected = np.zeros(evaluator.domain_size)
            indices, values = dense.query_support(index)
            expected[indices] = values
            assert np.array_equal(rows[index], expected), index

    def test_empty_support_packs_to_an_empty_row(self):
        workload = oracle_workload("mixed")
        evaluator = WorkloadEvaluator(workload, mode="sparse")
        packed = evaluator.backend.packed_workload()
        empty = [i for i in range(packed.num_queries) if packed.query_slice(i)[0].size == 0]
        assert len(empty) == 1
        assert packed.indptr[empty[0]] == packed.indptr[empty[0] + 1]
        flat = np.random.default_rng(2).random(evaluator.domain_size)
        assert evaluator.answers_on_histogram(flat)[empty[0]] == 0.0


class TestColumnView:
    def _view(self):
        evaluator = WorkloadEvaluator(_mixed_workload(), mode="sparse")
        packed = evaluator.backend.packed_workload()
        return packed, ColumnView(packed, evaluator.domain_size), evaluator.domain_size

    def test_matvec_is_the_column_block_product(self):
        packed, view, domain_size = self._view()
        rng = np.random.default_rng(4)
        cells = np.sort(rng.choice(domain_size, size=17, replace=False))
        deltas = rng.uniform(-1.0, 1.0, cells.size)
        starts, counts = view.spans(cells)
        expected = packed.matrix(domain_size).toarray()[:, cells] @ deltas
        got = view.matvec(starts, counts, deltas)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


class TestSparseSession:
    def test_histogram_session_routes_through_the_matvec(self):
        workload = _mixed_workload()
        rng = np.random.default_rng(5)
        flat = rng.random(workload.join_query.joint_domain_size)
        evaluator = WorkloadEvaluator(workload, mode="sparse")
        session = evaluator.histogram_session(flat)
        try:
            # The first answers are one full matvec: bitwise.
            assert np.array_equal(session.answers(), oracle_answers(evaluator, flat))
            indices = np.array([0, 3, 7], dtype=np.int64)
            session.scale_support(indices, np.full(3, 1.25))
            session.scale(2.0)
            expected = flat.copy()
            expected[indices] *= 1.25
            expected *= 2.0
            # Later answers are maintained incrementally: 1e-9 relative.
            reference = oracle_answers(evaluator, expected)
            scale = max(1.0, float(np.abs(reference).max()))
            assert np.max(np.abs(session.answers() - reference)) <= 1e-9 * scale
        finally:
            session.close()

    def _session(self, flat):
        # random_sign's first query is the all-ones counting query.
        workload = Workload.random_sign(two_table_query(5, 4, 6), 4, seed=3)
        evaluator = WorkloadEvaluator(workload, mode="sparse")
        return evaluator, evaluator.histogram_session(flat)

    def test_fill_recomputes_the_answers_bitwise(self):
        flat = np.random.default_rng(6).random(5 * 4 * 6)
        evaluator, session = self._session(flat)
        try:
            session.answers()
            session.scale_support(np.array([1, 2], dtype=np.int64), np.full(2, 3.0))
            session.fill(0.25)
            expected = np.full(flat.size, 0.25)
            assert np.array_equal(session.answers(), oracle_answers(evaluator, expected))
        finally:
            session.close()

    def test_wide_delta_recomputes_the_answers_bitwise(self):
        flat = np.random.default_rng(7).random(5 * 4 * 6)
        evaluator, session = self._session(flat)
        try:
            counting = evaluator.query_support(0)[0]
            assert counting.size == flat.size
            session.answers()
            factors = np.random.default_rng(8).uniform(0.5, 1.5, counting.size)
            # A delta over every cell costs more than a matvec: the session
            # drops its answers and the next call evaluates from scratch.
            session.scale_support(counting, factors)
            expected = flat.copy()
            expected[counting] *= factors
            assert np.array_equal(session.answers(), oracle_answers(evaluator, expected))
        finally:
            session.close()


class TestWorkloadCache:
    def test_packed_csr_shared_across_evaluators(self):
        workload = _mixed_workload()
        first = WorkloadEvaluator(workload, mode="sparse")
        second = WorkloadEvaluator(workload, mode="sparse")
        assert first.backend.packed_workload() is second.backend.packed_workload()
        assert first.backend._ensure_matrix() is second.backend._ensure_matrix()

    def test_cache_hit_still_serves_supports_and_answers(self):
        workload = _mixed_workload()
        rng = np.random.default_rng(8)
        flat = rng.random(workload.join_query.joint_domain_size)
        dense = WorkloadEvaluator(workload, mode="dense")
        first = WorkloadEvaluator(workload, mode="sparse")
        expected = first.answers_on_histogram(flat)  # populates the workload cache
        second = WorkloadEvaluator(workload, mode="sparse")
        assert np.array_equal(second.answers_on_histogram(flat), expected)
        assert np.array_equal(expected, oracle_answers(dense, flat))
        for index in (0, len(workload) - 1):
            assert np.array_equal(
                second.query_support(index)[0], dense.query_support(index)[0]
            )
            assert second.support_size(index) == dense.support_size(index)

    def test_shared_evaluator_is_keyed_by_backend_and_workers(self):
        workload = _mixed_workload()
        default = shared_evaluator(workload, backend="sparse")
        assert default is shared_evaluator(workload, backend="sparse", workers=1)
        assert default.mode == "sparse"
        # Distinct backends never collide in the cache.
        assert default is not shared_evaluator(workload, backend="dense")


class TestShardKernels:
    def test_slice_matrices_partition_the_columns(self):
        workload = _mixed_workload()
        evaluator = WorkloadEvaluator(workload, mode="sparse")
        packed = evaluator.backend.packed_workload()
        full = packed.matrix(evaluator.domain_size).toarray()
        bounds = [0, 37, 38, evaluator.domain_size]
        pieces = [
            vectorized.slice_matrix(packed, lo, hi).toarray()
            for lo, hi in zip(bounds, bounds[1:])
        ]
        assert np.array_equal(np.hstack(pieces), full)
