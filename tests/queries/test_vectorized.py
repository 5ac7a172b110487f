"""The vectorised batch-kernel backend: packing, engines, caching, parity.

The NumPy-engine tests run everywhere; the JAX-engine tests carry the
``requires_jax`` marker and are auto-skipped when the optional dependency
is not importable (see ``conftest.py``), while JAX *absence* paths are
exercised deterministically by monkeypatching the cached import.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.queries.vectorized as vectorized
from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.queries.backends import EvaluatorConfig, EvaluatorContext
from repro.queries.evaluation import (
    WorkloadEvaluator,
    auto_evaluator_mode,
    shared_evaluator,
)
from repro.queries.vectorized import (
    NumpyKernel,
    PackedWorkload,
    VectorizedBackend,
    plan_buckets,
    resolve_engine,
)
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance


def _marginal_workload() -> Workload:
    """Two marginal families with distinct support sizes (24 vs 20 cells):
    close enough to share a padding bucket, ragged enough that the padded
    total strictly exceeds the exact support total."""
    query = two_table_query(5, 4, 6)
    return Workload.attribute_marginals(query, "A").extended(
        Workload.attribute_marginals(query, "C").queries
    )


def _mixed_workload(seed: int = 0) -> Workload:
    query = two_table_query(5, 4, 6)
    workload = Workload.attribute_marginals(query, "B")
    return workload.extended(
        Workload.random_predicates(
            query, 3, selectivity=0.4, seed=seed, include_counting=False
        ).queries
    )


def _random_instance(workload: Workload, seed: int) -> Instance:
    rng = np.random.default_rng(seed)
    query = workload.join_query
    tuples = {
        schema.name: [
            tuple(int(rng.integers(size)) for size in schema.shape) for _ in range(40)
        ]
        for schema in query.relations
    }
    return Instance.from_tuple_lists(query, tuples)


def _force_jax_absent(monkeypatch):
    monkeypatch.setattr(vectorized, "_jax_module", None)


class TestPlanBuckets:
    def test_order_is_a_permutation_and_spans_partition(self):
        sizes = [7, 1, 100, 3, 3, 50, 2]
        order, spans, padded = plan_buckets(sizes)
        assert sorted(order.tolist()) == list(range(len(sizes)))
        assert spans[0][0] == 0 and spans[-1][1] == len(sizes)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo
        # Sorted within and across buckets.
        sorted_sizes = np.asarray(sizes)[order]
        assert np.all(np.diff(sorted_sizes) >= 0)
        assert padded >= sum(sizes)

    def test_growth_bound_keeps_per_bucket_waste_under_the_limit(self):
        rng = np.random.default_rng(0)
        sizes = rng.integers(1, 10_000, size=200)
        order, spans, padded = plan_buckets(sizes)
        sorted_sizes = sizes[order]
        for lo, hi in spans:
            bucket = sorted_sizes[lo:hi]
            # A new bucket opens past _BUCKET_GROWTH x the bucket minimum.
            assert bucket[-1] <= vectorized._BUCKET_GROWTH * max(1, bucket[0])
        assert padded <= vectorized._WASTE_LIMIT * int(sizes.sum())

    def test_bucket_cap_enforced_by_cheapest_merges(self):
        # Geometric sizes would open one bucket each without the cap.
        sizes = [2**k for k in range(30)]
        _order, spans, padded = plan_buckets(sizes)
        assert len(spans) <= vectorized._BUCKET_CAP
        assert padded >= sum(sizes)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            plan_buckets([])
        with pytest.raises(ValueError):
            plan_buckets([3, -1])


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

    def test_buckets_cover_every_query_with_zero_padding(self):
        packed, _indptr, _indices, _values = self._packed()
        seen = []
        for rows, index_matrix, weight_matrix in packed.buckets():
            assert index_matrix.shape == weight_matrix.shape
            for position, row in enumerate(rows):
                row_indices, row_values = packed.query_slice(int(row))
                width = row_indices.size
                assert np.array_equal(index_matrix[position, :width], row_indices)
                assert np.array_equal(weight_matrix[position, :width], row_values)
                # Pad positions contribute exact zeros.
                assert np.all(weight_matrix[position, width:] == 0.0)
            seen.extend(int(row) for row in rows)
        assert sorted(seen) == list(range(packed.num_queries))
        assert packed.padded_entries >= packed.total_entries
        assert packed.waste_ratio == packed.padded_entries / packed.total_entries


class TestNumpyEngine:
    def test_fused_csr_matvec_bitwise_vs_sparse(self):
        pytest.importorskip("scipy")
        workload = _mixed_workload()
        rng = np.random.default_rng(1)
        flat = rng.random(workload.join_query.joint_domain_size) * 5.0
        sparse = WorkloadEvaluator(workload, mode="sparse")
        vector = WorkloadEvaluator(workload, mode="vector", engine="numpy")
        kernel = vector.backend._ensure_kernel()
        assert kernel.fused
        assert np.array_equal(
            vector.answers_on_histogram(flat), sparse.answers_on_histogram(flat)
        )

    def test_einsum_fallback_without_scipy(self, monkeypatch):
        """No scipy -> padded-einsum path, 1e-9 parity on the same packing."""
        monkeypatch.setattr(vectorized, "_scipy_sparse_module", None)
        workload = _mixed_workload(seed=2)
        rng = np.random.default_rng(3)
        flat = rng.random(workload.join_query.joint_domain_size) * 5.0
        sparse = WorkloadEvaluator(workload, mode="sparse")
        vector = WorkloadEvaluator(workload, mode="vector", engine="numpy")
        kernel = NumpyKernel(vector.backend.packed_workload(), vector.domain_size)
        assert not kernel.fused
        reference = sparse.answers_on_histogram(flat)
        scale = max(1.0, float(np.abs(reference).max()))
        assert np.max(np.abs(kernel.answers(flat) - reference)) <= 1e-9 * scale

    def test_supports_and_instance_answers_inherited(self):
        workload = _mixed_workload()
        instance = _random_instance(workload, seed=4)
        sparse = WorkloadEvaluator(workload, mode="sparse")
        vector = WorkloadEvaluator(workload, mode="vector", engine="numpy")
        assert np.array_equal(
            vector.answers_on_instance(instance), sparse.answers_on_instance(instance)
        )
        for index in range(len(workload)):
            v_indices, v_values = vector.query_support(index)
            s_indices, s_values = sparse.query_support(index)
            assert np.array_equal(v_indices, s_indices)
            assert np.array_equal(v_values, s_values)

    def test_histogram_session_routes_through_the_kernel(self):
        workload = _mixed_workload()
        rng = np.random.default_rng(5)
        flat = rng.random(workload.join_query.joint_domain_size)
        sparse = WorkloadEvaluator(workload, mode="sparse")
        vector = WorkloadEvaluator(workload, mode="vector", engine="numpy")
        session = vector.histogram_session(flat)
        try:
            # The first answers are one full kernel evaluation: bitwise.
            assert np.array_equal(
                session.answers(), sparse.answers_on_histogram(flat)
            )
            indices = np.array([0, 3, 7], dtype=np.int64)
            session.scale_support(indices, np.full(3, 1.25))
            session.scale(2.0)
            expected = flat.copy()
            expected[indices] *= 1.25
            expected *= 2.0
            # Later answers are maintained incrementally: 1e-9 relative.
            reference = sparse.answers_on_histogram(expected)
            scale = max(1.0, float(np.abs(reference).max()))
            assert np.max(np.abs(session.answers() - reference)) <= 1e-9 * scale
        finally:
            session.close()

    def test_pmw_selections_bitwise_vs_sparse(self):
        workload = _mixed_workload()
        instance = _random_instance(workload, seed=6)
        config = PMWConfig(num_iterations=4)
        results = [
            private_multiplicative_weights(
                instance, workload, 1.0, 1e-5, 2.0,
                seed=19,
                evaluator=WorkloadEvaluator(workload, mode=mode, engine=engine),
                config=config,
            )
            for mode, engine in (("sparse", None), ("vector", "numpy"))
        ]
        assert results[0].selected_queries == results[1].selected_queries
        assert results[0].noisy_total == results[1].noisy_total
        # The session's incremental answers feed each update step, so the
        # histograms agree to 1e-9 relative (the determinism-matrix contract).
        scale = max(1.0, float(np.abs(results[0].histogram).max()))
        assert np.max(np.abs(results[0].histogram - results[1].histogram)) <= 1e-9 * scale


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        workload = _mixed_workload()
        with pytest.raises(ValueError, match="unknown vector engine"):
            WorkloadEvaluator(workload, mode="vector", engine="cuda")
        with pytest.raises(ValueError, match="unknown vector engine"):
            resolve_engine("cuda")

    def test_explicit_jax_without_jax_is_an_error(self, monkeypatch):
        _force_jax_absent(monkeypatch)
        workload = _mixed_workload()
        with pytest.raises(ValueError, match="not importable"):
            WorkloadEvaluator(workload, mode="vector", engine="jax")

    def test_auto_detection_falls_back_to_numpy(self, monkeypatch):
        _force_jax_absent(monkeypatch)
        assert resolve_engine(None) == "numpy"
        assert not vectorized.jax_available()
        assert not vectorized.accelerator_available()
        workload = _mixed_workload()
        evaluator = WorkloadEvaluator(workload, mode="vector")
        assert evaluator.engine == "numpy"
        assert evaluator.backend.engine == "numpy"

    def test_engine_property_reflects_configuration(self):
        workload = _mixed_workload()
        vector = WorkloadEvaluator(workload, mode="vector", engine="numpy")
        assert vector.engine == "numpy"
        # Non-vector backends just echo the configured engine (None here).
        assert WorkloadEvaluator(workload, mode="sparse").engine is None


class TestCostModel:
    def _context(self, workload, **config):
        return EvaluatorContext(workload, EvaluatorConfig(**config))

    def test_small_workloads_stay_below_the_packing_threshold(self):
        workload = _mixed_workload()
        cost = VectorizedBackend.estimate_cost(self._context(workload))
        assert not cost.eligible
        assert "below the packing threshold" in cost.reason
        assert auto_evaluator_mode(workload) == "dense"

    def test_accelerator_drops_the_threshold_to_zero(self, monkeypatch):
        monkeypatch.setattr(vectorized, "accelerator_available", lambda: True)
        workload = _mixed_workload()
        cost = VectorizedBackend.estimate_cost(self._context(workload))
        assert cost.eligible

    def test_auto_upgrades_once_the_workload_amortises_packing(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_MIN_PACKED_ENTRIES", 0)
        workload = _mixed_workload()
        # Dense priced out by the cell budget; vector outranks sparse.
        assert auto_evaluator_mode(workload, cell_budget=10) == "vector"
        constructed = WorkloadEvaluator(workload, cell_budget=10)
        assert constructed.mode == "vector"

    def test_unpackable_supports_report_nothing_to_pack(self):
        workload = _mixed_workload()
        cost = VectorizedBackend.estimate_cost(
            self._context(workload, sparse_cell_budget=1)
        )
        assert not cost.eligible
        assert "nothing to pack" in cost.reason
        assert cost.memory_bytes == 0

    def test_padded_packing_checked_against_the_sparse_budget(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_MIN_PACKED_ENTRIES", 0)
        workload = _marginal_workload()
        packed = WorkloadEvaluator(
            workload, mode="vector", engine="numpy"
        ).backend.packed_workload()
        assert packed.padded_entries > packed.total_entries  # genuinely ragged
        cost = VectorizedBackend.estimate_cost(
            self._context(workload, sparse_cell_budget=packed.total_entries)
        )
        assert not cost.eligible
        assert "exceeds sparse cell budget" in cost.reason

    def test_ragged_workloads_fail_the_rectangularity_probe(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_MIN_PACKED_ENTRIES", 0)
        monkeypatch.setattr(vectorized, "_WASTE_LIMIT", 1.0)
        workload = _marginal_workload()
        cost = VectorizedBackend.estimate_cost(self._context(workload))
        assert not cost.eligible
        assert "too ragged" in cost.reason
        # The auto choice and the cost report share one probe.
        assert not VectorizedBackend.is_eligible(self._context(workload))


class TestWorkloadCache:
    def test_packed_tensors_shared_across_evaluators(self):
        workload = _mixed_workload()
        first = WorkloadEvaluator(workload, mode="vector", engine="numpy")
        second = WorkloadEvaluator(workload, mode="vector", engine="numpy")
        assert first.backend.packed_workload() is second.backend.packed_workload()
        assert first.backend._ensure_kernel() is second.backend._ensure_kernel()

    def test_cache_hit_still_serves_supports_and_answers(self):
        workload = _mixed_workload()
        rng = np.random.default_rng(8)
        flat = rng.random(workload.join_query.joint_domain_size)
        sparse = WorkloadEvaluator(workload, mode="sparse")
        first = WorkloadEvaluator(workload, mode="vector", engine="numpy")
        first.answers_on_histogram(flat)  # populate the workload cache
        second = WorkloadEvaluator(workload, mode="vector", engine="numpy")
        assert np.array_equal(
            second.answers_on_histogram(flat), sparse.answers_on_histogram(flat)
        )
        for index in (0, len(workload) - 1):
            assert np.array_equal(
                second.query_support(index)[0], sparse.query_support(index)[0]
            )
            assert second.support_size(index) == sparse.support_size(index)

    def test_shared_evaluator_canonicalises_the_engine_key(self, monkeypatch):
        _force_jax_absent(monkeypatch)
        workload = _mixed_workload()
        # With JAX absent, engine=None resolves to "numpy": one cache entry.
        default = shared_evaluator(workload, backend="vector")
        assert default is shared_evaluator(workload, backend="vector", engine="numpy")
        assert default.mode == "vector"
        # Distinct backends never collide in the cache.
        assert default is not shared_evaluator(workload, backend="sparse")

    def test_shared_evaluator_rejects_bad_engines(self):
        workload = _mixed_workload()
        with pytest.raises(ValueError, match="unknown vector engine"):
            shared_evaluator(workload, backend="vector", engine="cuda")


class TestShardedKernelExport:
    def test_sharded_with_engine_stays_bitwise(self):
        pytest.importorskip("scipy")
        workload = _mixed_workload()
        rng = np.random.default_rng(9)
        flat = rng.random(workload.join_query.joint_domain_size) * 3.0
        sparse = WorkloadEvaluator(workload, mode="sparse")
        plain = WorkloadEvaluator(workload, mode="sharded", workers=2)
        fused = WorkloadEvaluator(workload, mode="sharded", workers=2, engine="numpy")
        try:
            reference = sparse.answers_on_histogram(flat)
            assert np.array_equal(plain.answers_on_histogram(flat), reference)
            assert np.array_equal(fused.answers_on_histogram(flat), reference)
        finally:
            plain.close()
            fused.close()

    def test_shard_matvec_kernels_match_row_spans(self):
        pytest.importorskip("scipy")
        workload = _mixed_workload()
        vector = WorkloadEvaluator(workload, mode="vector", engine="numpy")
        packed = vector.backend.packed_workload()
        row_bounds = np.array([0, 2, packed.num_queries], dtype=np.int64)
        result = vectorized.shard_matvec_kernels(
            row_bounds, packed.indptr, packed.indices, packed.values,
            vector.domain_size,
        )
        assert result is not None
        spans, matrices = result
        assert spans == [(0, 2), (2, packed.num_queries)]
        rng = np.random.default_rng(10)
        flat = rng.random(vector.domain_size)
        full = vector.answers_on_histogram(flat)
        for (row_lo, row_hi), matrix in zip(spans, matrices):
            assert np.array_equal(matrix @ flat, full[row_lo:row_hi])

    def test_export_degrades_to_none_without_scipy(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_scipy_sparse_module", None)
        assert (
            vectorized.shard_matvec_kernels(
                np.array([0, 1]), np.array([0, 2]), np.array([0, 1]),
                np.array([1.0, 1.0]), 4,
            )
            is None
        )


@pytest.mark.requires_jax
class TestJaxEngine:
    def test_jax_answers_match_sparse(self):
        workload = _mixed_workload()
        rng = np.random.default_rng(11)
        flat = rng.random(workload.join_query.joint_domain_size) * 5.0
        sparse = WorkloadEvaluator(workload, mode="sparse")
        vector = WorkloadEvaluator(workload, mode="vector", engine="jax")
        assert vector.engine == "jax"
        reference = sparse.answers_on_histogram(flat)
        scale = max(1.0, float(np.abs(reference).max()))
        assert np.max(
            np.abs(vector.answers_on_histogram(flat) - reference)
        ) <= 1e-9 * scale

    def test_device_session_implements_the_op_protocol(self):
        workload = _mixed_workload()
        rng = np.random.default_rng(12)
        flat = rng.random(workload.join_query.joint_domain_size)
        sparse = WorkloadEvaluator(workload, mode="sparse")
        vector = WorkloadEvaluator(workload, mode="vector", engine="jax")
        session = vector.histogram_session(flat)
        try:
            indices = np.array([0, 2, 5], dtype=np.int64)
            session.scale_support(indices, np.full(3, 1.5))
            session.scale(2.0)
            expected = flat.copy()
            expected[indices] *= 1.5
            expected *= 2.0
            reference = sparse.answers_on_histogram(expected)
            scale = max(1.0, float(np.abs(reference).max()))
            assert np.max(np.abs(session.answers() - reference)) <= 1e-9 * scale
            assert session.total() == pytest.approx(float(expected.sum()))
            session.accumulate()
            _lo, _hi, averaged = next(iter(session.averaged_slices(2.0)))
            assert np.max(np.abs(averaged - expected / 2.0)) <= 1e-9 * max(
                1.0, float(np.abs(expected).max())
            )
        finally:
            session.close()

    def test_pmw_selections_bitwise_vs_sparse(self):
        workload = _mixed_workload()
        instance = _random_instance(workload, seed=13)
        config = PMWConfig(num_iterations=4)
        results = [
            private_multiplicative_weights(
                instance, workload, 1.0, 1e-5, 2.0,
                seed=29,
                evaluator=WorkloadEvaluator(workload, mode=mode, engine=engine),
                config=config,
            )
            for mode, engine in (("sparse", None), ("vector", "jax"))
        ]
        assert results[0].selected_queries == results[1].selected_queries
        assert results[0].noisy_total == results[1].noisy_total
