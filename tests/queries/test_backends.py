"""Backend name table and cross-backend parity tests.

Every evaluation backend — including the domain-partitioned
multiprocessing backend with 2 workers — must be interchangeable: identical
instance answers, histogram answers within 1e-9, and supports that
round-trip to the dense query vectors.  The shared-evaluator cache must die
with its workload.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.queries.backends import (
    EvaluatorConfig,
    EvaluatorContext,
    HistogramSeed,
    iter_decoded_chunks,
)
from repro.queries.sharded import DomainShardedBackend, _plan_domain_slices
from repro.queries.evaluation import (
    BACKENDS,
    WorkloadEvaluator,
    auto_evaluator_mode,
    get_default_backend,
    set_default_backend,
    shared_evaluator,
)
from repro.queries.workload import Workload
from repro.relational.hypergraph import path3_query, two_table_query
from repro.relational.instance import Instance

_BUILTIN_BACKENDS = {
    "dense",
    "sparse",
    "streaming",
    "domain",
}


def _random_workload(seed: int) -> Workload:
    """A randomized mixed workload: marginals + signs + predicates."""
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        query = two_table_query(5, 4, 6)
    else:
        query = path3_query(3, 4, 3, 2)
    attribute = query.attribute_names[int(rng.integers(len(query.attribute_names)))]
    workload = Workload.attribute_marginals(query, attribute)
    workload = workload.extended(
        Workload.random_sign(
            query, int(rng.integers(2, 5)), seed=seed + 1, include_counting=False
        ).queries
    )
    return workload.extended(
        Workload.random_predicates(
            query, 2, selectivity=0.4, seed=seed + 2, include_counting=False
        ).queries
    )


def _random_instance(workload: Workload, rng: np.random.Generator) -> Instance:
    query = workload.join_query
    tuples = {}
    for schema in query.relations:
        tuples[schema.name] = [
            tuple(int(rng.integers(size)) for size in schema.shape) for _ in range(30)
        ]
    return Instance.from_tuple_lists(query, tuples)


class TestBackendTable:
    def test_builtin_backends_named(self):
        assert _BUILTIN_BACKENDS == set(BACKENDS)

    def test_unknown_backend_rejected(self):
        workload = _random_workload(0)
        with pytest.raises(ValueError):
            WorkloadEvaluator(workload, mode="magic")
        with pytest.raises(ValueError):
            set_default_backend("magic")

    def test_removed_prefetch_mode_rejected(self):
        workload = _random_workload(0)
        with pytest.raises(ValueError, match="unknown evaluator backend"):
            WorkloadEvaluator(workload, mode="prefetch")
        with pytest.raises(ValueError, match="unknown evaluator backend"):
            set_default_backend("prefetch")
        assert get_default_backend() == ("auto", 1)

    def test_removed_sharded_mode_rejected(self):
        workload = _random_workload(0)
        with pytest.raises(ValueError, match="unknown evaluator backend"):
            WorkloadEvaluator(workload, mode="sharded", workers=2)
        with pytest.raises(ValueError, match="unknown evaluator backend"):
            shared_evaluator(workload, backend="sharded")
        with pytest.raises(ValueError, match="unknown evaluator backend"):
            set_default_backend("sharded", workers=2)
        assert get_default_backend() == ("auto", 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestBackendParity:
    """Property-style parity across every backend."""

    def _evaluators(self, workload):
        return {
            name: WorkloadEvaluator(workload, mode=name, workers=2, chunk_size=16)
            for name in BACKENDS
        }

    def test_answers_and_supports_agree(self, seed):
        workload = _random_workload(seed)
        rng = np.random.default_rng(seed + 10)
        instance = _random_instance(workload, rng)
        evaluators = self._evaluators(workload)
        try:
            reference_instance = evaluators["dense"].answers_on_instance(instance)
            histograms = [
                rng.random(workload.join_query.shape) * 10.0,
                np.zeros(workload.join_query.shape),
            ]
            for histogram in histograms:
                reference = evaluators["dense"].answers_on_histogram(histogram)
                scale = max(1.0, float(np.abs(reference).max()))
                for name, evaluator in evaluators.items():
                    answers = evaluator.answers_on_histogram(histogram)
                    assert np.max(np.abs(answers - reference)) <= 1e-9 * scale, name
                    assert np.array_equal(
                        evaluator.answers_on_instance(instance), reference_instance
                    ), name
            for index in range(len(workload)):
                dense_vector = evaluators["dense"].query_values(index)
                for name, evaluator in evaluators.items():
                    indices, values = evaluator.query_support(index)
                    roundtrip = np.zeros(evaluator.domain_size)
                    roundtrip[indices] = values
                    assert np.array_equal(roundtrip, dense_vector), (name, index)
                    assert evaluator.support_size(index) == int(
                        np.count_nonzero(dense_vector)
                    ), name
        finally:
            for evaluator in evaluators.values():
                evaluator.close()


    def test_auto_choice_follows_the_rule(self, seed):
        """``auto`` picks the first of dense / sparse / streaming whose
        condition holds, whatever the worker count, and the constructor
        agrees with the planner."""
        workload = _random_workload(seed)
        dense_cells = len(workload) * workload.join_query.joint_domain_size
        total_support = WorkloadEvaluator(workload, mode="sparse").total_support_size()
        for kwargs in (
            {},
            {"cell_budget": 10},
            {"cell_budget": 10, "sparse_cell_budget": 10},
            {"cell_budget": 10, "workers": 2},
            {"cell_budget": 10, "sparse_cell_budget": 10, "workers": 2},
        ):
            if dense_cells <= kwargs.get("cell_budget", dense_cells):
                expected = "dense"
            elif total_support <= kwargs.get("sparse_cell_budget", total_support):
                expected = "sparse"
            else:
                expected = "streaming"
            budgets = {key: value for key, value in kwargs.items() if key != "workers"}
            assert auto_evaluator_mode(workload, **budgets) == expected, kwargs
            constructed = WorkloadEvaluator(workload, **kwargs)
            try:
                assert constructed.mode == expected, kwargs
            finally:
                constructed.close()


class TestStreamingScan:
    @pytest.mark.parametrize("chunk_size", [1, 5, 16, 121])
    def test_chunk_size_does_not_change_answers(self, chunk_size):
        """Single-cell, ragged, default-test and whole-domain chunks all
        answer like the dense matrix, on histograms and on instances."""
        workload = _random_workload(0)
        assert workload.join_query.joint_domain_size == 120
        rng = np.random.default_rng(chunk_size)
        histogram = rng.random(workload.join_query.shape) * 4.0
        instance = _random_instance(workload, rng)
        dense = WorkloadEvaluator(workload, mode="dense")
        streaming = WorkloadEvaluator(workload, mode="streaming", chunk_size=chunk_size)
        reference = dense.answers_on_histogram(histogram)
        scale = max(1.0, float(np.abs(reference).max()))
        answers = streaming.answers_on_histogram(histogram)
        assert np.max(np.abs(answers - reference)) <= 1e-9 * scale
        assert np.array_equal(
            streaming.answers_on_instance(instance), dense.answers_on_instance(instance)
        )


class TestDomainBackend:
    """The domain-partitioned strategy: per-slice segments, op-only sessions."""

    def test_slice_plan_partitions_the_domain(self):
        workload = _random_workload(0)
        evaluator = WorkloadEvaluator(workload, mode="domain", workers=2)
        try:
            evaluator.answers_on_histogram(np.zeros(workload.join_query.shape))
            plan = evaluator.backend.slice_plan()
            assert plan[0][0] == 0
            assert plan[-1][1] == workload.join_query.joint_domain_size
            for (_, hi), (lo, _) in zip(plan, plan[1:]):
                assert hi == lo  # contiguous, no gaps or overlaps
            segment_bytes = evaluator.backend.slice_segment_bytes()
            assert list(segment_bytes) == [max(8 * (hi - lo), 8) for lo, hi in plan]
        finally:
            evaluator.close()

    def test_session_deltas_reach_workers(self):
        """In-place per-slice writes must be visible to the next evaluation."""
        workload = _random_workload(0)
        rng = np.random.default_rng(21)
        flat = rng.random(workload.join_query.joint_domain_size)
        serial = WorkloadEvaluator(workload, mode="sparse")
        domain = WorkloadEvaluator(workload, mode="domain", workers=2)
        try:
            session = domain.histogram_session(flat)
            reference = serial.answers_on_histogram(flat)
            scale = max(1.0, float(np.abs(reference).max()))
            assert np.max(np.abs(session.answers() - reference)) <= 1e-9 * scale
            indices = np.array([0, 2, 5], dtype=np.int64)
            session.scale_support(indices, np.full(3, 1.5))
            session.scale(2.0)
            expected = flat.copy()
            expected[indices] *= 1.5
            expected *= 2.0
            updated = serial.answers_on_histogram(expected)
            scale = max(1.0, float(np.abs(updated).max()))
            assert np.max(np.abs(session.answers() - updated)) <= 1e-9 * scale
            assert session.total() == pytest.approx(float(expected.sum()))
            session.close()
        finally:
            domain.close()

    def test_scale_support_requires_ascending_indices(self):
        workload = _random_workload(0)
        domain = WorkloadEvaluator(workload, mode="domain", workers=2)
        try:
            session = domain.histogram_session(
                seed=HistogramSeed.uniform(float(workload.join_query.joint_domain_size))
            )
            with pytest.raises(ValueError, match="ascending"):
                session.scale_support(
                    np.array([5, 2], dtype=np.int64), np.array([1.5, 2.0])
                )
            session.close()
        finally:
            domain.close()

    def test_seed_specs_never_materialize_in_the_parent(self):
        """Uniform seeds land slice by slice; array seeds are copied per slice."""
        workload = _random_workload(0)
        domain_size = workload.join_query.joint_domain_size
        serial = WorkloadEvaluator(workload, mode="sparse")
        domain = WorkloadEvaluator(workload, mode="domain", workers=2)
        try:
            session = domain.histogram_session(seed=HistogramSeed.uniform(40.0))
            uniform = np.full(domain_size, 40.0 / domain_size)
            reference = serial.answers_on_histogram(uniform)
            scale = max(1.0, float(np.abs(reference).max()))
            assert np.max(np.abs(session.answers() - reference)) <= 1e-9 * scale
            assert session.total() == pytest.approx(40.0)
            session.close()

            ramp = np.arange(domain_size, dtype=np.float64)
            session = domain.histogram_session(seed=HistogramSeed.from_array(ramp))
            reference = serial.answers_on_histogram(ramp)
            scale = max(1.0, float(np.abs(reference).max()))
            assert np.max(np.abs(session.answers() - reference)) <= 1e-9 * scale
            session.close()
        finally:
            domain.close()

    def test_single_session_guard_and_reuse_after_close(self):
        workload = _random_workload(0)
        rng = np.random.default_rng(22)
        flat = rng.random(workload.join_query.joint_domain_size)
        serial = WorkloadEvaluator(workload, mode="sparse")
        domain = WorkloadEvaluator(workload, mode="domain", workers=2)
        try:
            session = domain.histogram_session(flat)
            with pytest.raises(RuntimeError):
                domain.answers_on_histogram(flat)
            with pytest.raises(RuntimeError):
                domain.histogram_session(flat)
            session.close()
            reference = serial.answers_on_histogram(flat)
            scale = max(1.0, float(np.abs(reference).max()))
            assert np.max(np.abs(domain.answers_on_histogram(flat) - reference)) <= (
                1e-9 * scale
            )
            # Full teardown and restart: new segments, same answers.
            domain.close()
            assert np.max(np.abs(domain.answers_on_histogram(flat) - reference)) <= (
                1e-9 * scale
            )
        finally:
            domain.close()

    def test_chunked_representation_matches_csr(self):
        workload = _random_workload(0)
        rng = np.random.default_rng(23)
        histogram = rng.random(workload.join_query.shape) * 5.0
        csr = WorkloadEvaluator(workload, mode="domain", workers=2)
        chunked = WorkloadEvaluator(
            workload, mode="domain", workers=2, sparse_cell_budget=1, chunk_size=16
        )
        try:
            assert csr.backend.representation == "csr"
            assert chunked.backend.representation == "chunked"
            reference = csr.answers_on_histogram(histogram)
            scale = max(1.0, float(np.abs(reference).max()))
            answers = chunked.answers_on_histogram(histogram)
            assert np.max(np.abs(answers - reference)) <= 1e-9 * scale
        finally:
            csr.close()
            chunked.close()

    @pytest.mark.parametrize(
        "domain_size, shards, chunk_size",
        [(120, 2, None), (120, 3, 16), (10, 4, 8)],
    )
    def test_planned_slices_tile_the_domain(self, domain_size, shards, chunk_size):
        """Contiguous, covering, chunk-aligned; tiny domains get fewer slices."""
        slices = _plan_domain_slices(domain_size, shards, chunk_size)
        assert slices[0][0] == 0 and slices[-1][1] == domain_size
        assert all(hi == next_lo for (_, hi), (next_lo, _) in zip(slices, slices[1:]))
        assert all(lo < hi for lo, hi in slices)
        assert len(slices) <= shards
        if chunk_size:
            assert all(lo % chunk_size == 0 for lo, _ in slices)
        # Ten cells in chunks of eight: two chunks, so at most two slices.
        if domain_size == 10:
            assert slices == [(0, 8), (8, 10)]

    @pytest.mark.parametrize("representation", ["csr", "chunked"])
    def test_estimated_memory_counts_one_histogram(self, representation):
        workload = _random_workload(0)
        budgets = {} if representation == "csr" else {"sparse_cell_budget": 1}
        evaluator = WorkloadEvaluator(
            workload, mode="domain", workers=3, chunk_size=16, **budgets
        )
        backend = evaluator.backend
        assert backend.representation == representation
        histogram_bytes = 8 * workload.join_query.joint_domain_size
        if representation == "csr":
            # The packed CSR plus its slice-local re-indexed copy.
            resident = 32 * evaluator.total_support_size()
        else:
            # One scan chunk per worker: decoded indices, values, slice.
            resident = 3 * 8 * 16 * (len(workload.join_query.shape) + 2)
        assert backend.estimated_memory() == resident + histogram_bytes
        evaluator.close()

    def test_chunked_representation_caches_supports_within_the_budget(self):
        """Beyond the sparse budget, supports are built on demand, not kept."""
        workload = _random_workload(0)
        evaluator = WorkloadEvaluator(
            workload, mode="domain", workers=2, sparse_cell_budget=1, chunk_size=16
        )
        dense = WorkloadEvaluator(workload, mode="dense")
        backend = evaluator.backend
        for index in range(len(workload)):
            indices, values = evaluator.query_support(index)
            assert np.array_equal(indices, dense.query_support(index)[0])
            assert np.array_equal(values, dense.query_support(index)[1])
        assert backend._cached_support_entries <= 1
        evaluator.close()

    def test_mid_segment_creation_failure_unwinds_earlier_segments(
        self, monkeypatch, shm_segments
    ):
        """A failure creating slice k must unlink slices 0..k-1, not leak them."""
        import repro.queries.sharded as sharded_module

        workload = _random_workload(0)
        histogram = np.zeros(workload.join_query.shape)
        serial = WorkloadEvaluator(workload, mode="sparse")
        evaluator = WorkloadEvaluator(workload, mode="domain", workers=2)
        real_shm = sharded_module.shared_memory.SharedMemory
        creates = {"count": 0}

        def flaky_shm(*args, **kwargs):
            if kwargs.get("create"):
                creates["count"] += 1
                if creates["count"] == 2:
                    raise OSError("injected segment failure")
            return real_shm(*args, **kwargs)

        try:
            with monkeypatch.context() as patch:
                patch.setattr(
                    "repro.queries.sharded.shared_memory.SharedMemory", flaky_shm
                )
                baseline = shm_segments()
                with pytest.raises(OSError, match="injected segment failure"):
                    evaluator.answers_on_histogram(histogram)
                assert creates["count"] == 2, "second slice segment never attempted"
                assert shm_segments() == baseline, (
                    "mid-segment _start failure leaked the earlier slice segments"
                )
            # The failure path left the backend consistent: the very next
            # evaluation creates every slice segment for real.
            assert np.array_equal(
                evaluator.answers_on_histogram(histogram),
                serial.answers_on_histogram(histogram),
            )
        finally:
            evaluator.close()


class TestSharedEvaluatorCache:
    def test_same_settings_share_one_evaluator(self):
        workload = _random_workload(1)
        assert shared_evaluator(workload) is shared_evaluator(workload)

    def test_distinct_settings_get_distinct_evaluators(self):
        workload = _random_workload(1)
        default = shared_evaluator(workload)
        sparse = shared_evaluator(workload, backend="sparse")
        assert default is not sparse
        assert sparse.mode == "sparse"
        assert shared_evaluator(workload, backend="sparse") is sparse

    def test_entries_evicted_when_workload_collected(self):
        workload = _random_workload(2)
        evaluator = shared_evaluator(workload)
        evaluator_ref = weakref.ref(evaluator)
        workload_ref = weakref.ref(workload)
        del evaluator, workload
        gc.collect()
        assert workload_ref() is None, "workload kept alive by the evaluator cache"
        assert evaluator_ref() is None, "cached evaluator outlived its workload"

    def test_default_backend_steers_shared_evaluator(self):
        workload = _random_workload(1)
        try:
            set_default_backend("streaming")
            assert get_default_backend() == ("streaming", 1)
            assert shared_evaluator(workload).mode == "streaming"
        finally:
            set_default_backend()
        assert get_default_backend() == ("auto", 1)

    def test_default_worker_count_respected_for_domain_default(self):
        """CLI-style defaults must reach shared_evaluator unchanged."""
        workload = _random_workload(1)
        try:
            set_default_backend("domain", workers=4)
            evaluator = shared_evaluator(workload)
            assert evaluator.mode == "domain"
            assert evaluator.workers == 4
            # An explicit domain request without a worker count still
            # implies parallelism.
            explicit = shared_evaluator(workload, backend="domain")
            assert explicit.workers == 2
        finally:
            set_default_backend()

    def test_default_worker_count_does_not_steer_auto(self):
        """``--workers`` with the auto backend keeps the serial choice."""
        workload = _random_workload(1)
        try:
            set_default_backend("auto", workers=4)
            evaluator = WorkloadEvaluator(workload, cell_budget=10)
            assert evaluator.workers == 4
            assert evaluator.mode == "sparse"
            assert shared_evaluator(workload).mode == "dense"
        finally:
            set_default_backend()

    def test_worker_counts_canonicalised_in_cache_key(self):
        """Equivalent requests (domain w=1 vs w=2) share one cache entry."""
        workload = _random_workload(1)
        assert shared_evaluator(workload, backend="domain", workers=1) is (
            shared_evaluator(workload, backend="domain", workers=2)
        )


class TestChunkIterator:
    """The decoded-chunk iterator behind the chunked scan."""

    def test_partial_ranges_and_tail_chunk(self):
        chunks = list(iter_decoded_chunks((4, 4), 3, 14, 5))
        assert [(lo, hi) for lo, hi, _ in chunks] == [(3, 8), (8, 13), (13, 14)]
        lo, hi, multi = chunks[-1]
        assert np.array_equal(multi[0], [3]) and np.array_equal(multi[1], [1])

    @pytest.mark.parametrize("chunk_size", [1, 7, 60, 61])
    def test_chunks_tile_the_range_in_order(self, chunk_size):
        shape = (5, 3, 4)
        chunks = list(iter_decoded_chunks(shape, 0, 60, chunk_size))
        assert chunks[0][0] == 0 and chunks[-1][1] == 60
        assert all(hi == next_lo for (_, hi, _), (next_lo, _, _) in zip(chunks, chunks[1:]))
        assert all(0 < hi - lo <= chunk_size for lo, hi, _ in chunks)
        expected = np.unravel_index(np.arange(60), shape)
        for axis in range(len(shape)):
            decoded = np.concatenate([multi[axis] for _, _, multi in chunks])
            assert np.array_equal(decoded, expected[axis])

    def test_empty_range_yields_nothing(self):
        assert list(iter_decoded_chunks((4, 4), 9, 9, 4)) == []

    def test_stop_beyond_domain_rejected(self):
        with pytest.raises(ValueError):
            list(iter_decoded_chunks((4, 4), 0, 32, 4))

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError):
            next(iter_decoded_chunks((4, 4), 0, 16, 0))


class TestBackendLifecycle:
    def test_domain_reuse_after_close_restarts_pool(self):
        workload = _random_workload(1)
        rng = np.random.default_rng(9)
        histogram = rng.random(workload.join_query.shape)
        serial = WorkloadEvaluator(workload, mode="sparse")
        evaluator = WorkloadEvaluator(workload, mode="domain", workers=2)
        try:
            reference = serial.answers_on_histogram(histogram)
            scale = max(1.0, float(np.abs(reference).max()))
            expected = evaluator.answers_on_histogram(histogram)
            assert np.max(np.abs(expected - reference)) <= 1e-9 * scale
            evaluator.close()
            # close() tore down the pool and the slice segments; the next
            # evaluation must restart both cleanly, over the same slices.
            assert np.array_equal(evaluator.answers_on_histogram(histogram), expected)
        finally:
            evaluator.close()

    def test_close_unlinks_every_slice_segment(self, shm_segments):
        workload = _random_workload(1)
        baseline = shm_segments()
        evaluator = WorkloadEvaluator(workload, mode="domain", workers=3)
        try:
            evaluator.answers_on_histogram(np.ones(workload.join_query.shape))
            slices = evaluator.backend.slice_plan()
            assert len(slices) == 3
            assert len(shm_segments() - baseline) == len(slices)
        finally:
            evaluator.close()
        assert shm_segments() == baseline
        evaluator.close()  # a second close is a no-op
        assert shm_segments() == baseline

    @pytest.mark.parametrize("mode", ["dense", "sparse", "streaming", "domain"])
    def test_sessions_never_mutate_the_caller_seed(self, mode):
        """Every backend copies the seed into session storage it owns."""
        workload = _random_workload(0)
        rng = np.random.default_rng(7)
        flat = rng.random(workload.join_query.joint_domain_size)
        pristine = flat.copy()
        evaluator = WorkloadEvaluator(workload, mode=mode, workers=2, chunk_size=16)
        try:
            session = evaluator.histogram_session(flat)
            session.scale_support(np.array([0, 3], dtype=np.int64), np.array([2.0, 0.5]))
            session.scale(2.0)
            session.accumulate()
            session.fill(0.0)
            assert np.array_equal(flat, pristine)
            session.close()
        finally:
            evaluator.close()

    @pytest.mark.parametrize("mode", ["domain"])
    def test_start_failure_does_not_leak_shm(self, mode, monkeypatch, shm_segments):
        workload = _random_workload(0)
        histogram = np.zeros(workload.join_query.shape)
        evaluator = WorkloadEvaluator(workload, mode=mode, workers=2)

        def refuse_to_start(*args, **kwargs):
            raise RuntimeError("injected pool failure")

        try:
            with monkeypatch.context() as patch:
                patch.setattr(
                    "repro.queries.sharded.ProcessPoolExecutor", refuse_to_start
                )
                baseline = shm_segments()
                with pytest.raises(RuntimeError, match="injected pool failure"):
                    evaluator.answers_on_histogram(histogram)
                assert shm_segments() == baseline, "mid-_start failure leaked shm"
            # The failure path left the backend consistent: the very next
            # evaluation starts the pool for real.
            assert np.array_equal(
                evaluator.answers_on_histogram(histogram), np.zeros(len(workload))
            )
        finally:
            evaluator.close()

    def test_worker_floor_agrees_across_construction_paths(self):
        """Direct backend construction obeys the same invariant as the facade."""
        workload = _random_workload(0)
        facade = WorkloadEvaluator(workload, mode="domain", workers=1)
        assert facade.workers == 2
        context = EvaluatorContext(workload, EvaluatorConfig(workers=1))
        backend = DomainShardedBackend(context)
        assert backend.workers == 2
        # The caller's context is not mutated: it keeps the worker count the
        # caller actually configured.
        assert context.config.workers == 1

    def test_invalid_worker_counts_rejected_for_named_backends(self):
        """A floor is a convenience; a typo'd count is an error, like auto."""
        workload = _random_workload(0)
        with pytest.raises(ValueError, match="workers"):
            WorkloadEvaluator(workload, mode="sparse", workers=0)
        with pytest.raises(ValueError, match="workers"):
            shared_evaluator(workload, backend="domain", workers=-1)

    def test_domain_validates_histogram_writes(self):
        workload = _random_workload(0)
        evaluator = WorkloadEvaluator(workload, mode="domain", workers=2)
        try:
            backend = evaluator.backend
            with pytest.raises(ValueError, match="cells"):
                backend.answers_on_histogram(np.float64(1.0))  # scalar broadcast
            with pytest.raises(ValueError, match="cells"):
                backend.answers_on_histogram(np.zeros(3))
            with pytest.raises(ValueError, match="cells"):
                backend.session(np.zeros(3))
        finally:
            evaluator.close()
