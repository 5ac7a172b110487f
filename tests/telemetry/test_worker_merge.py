"""Cross-process aggregation: per-worker buffers merge into the parent.

Unit level: the flush/drain protocol over a real ``SimpleQueue`` preserves
totals and labels every merged series with the worker pid.  Integration
level: a 2-worker domain evaluation records per-worker task counts and
slice-evaluation timings, and after pool shutdown the parent's registry
accounts for every dispatched slice task exactly once.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro import telemetry
from repro.queries.evaluation import WorkloadEvaluator
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.workers import (
    create_flush_queue,
    drain_flush_queue,
    flush_worker_telemetry,
    init_worker_telemetry,
)


def _workload(seed: int = 0) -> Workload:
    query = two_table_query(5, 4, 6)
    workload = Workload.attribute_marginals(query, "B")
    return workload.extended(
        Workload.random_sign(query, 3, seed=seed + 1, include_counting=False).queries
    )


class TestFlushDrainProtocol:
    def test_drain_merges_snapshots_with_pid_labels(self):
        telemetry.configure()
        queue = create_flush_queue(multiprocessing.get_context())
        try:
            for fake_pid, tasks in ((101, 3), (202, 1)):
                worker_registry = MetricsRegistry()
                worker_registry.counter("worker.tasks").add(tasks)
                worker_registry.distribution("worker.eval_seconds").observe(0.5)
                queue.put((fake_pid, worker_registry.snapshot()))
            merged = drain_flush_queue(queue, label="worker")
        finally:
            queue.close()
        assert merged == 2
        flat = telemetry.registry().flat()
        assert flat["worker.tasks{worker=101}"] == 3.0
        assert flat["worker.tasks{worker=202}"] == 1.0
        assert flat["worker.eval_seconds{worker=101}"]["count"] == 1

    def test_drain_totals_equal_single_process_recording(self):
        # The invariant the protocol exists for: merging per-worker buffers
        # reports the same totals as one process recording everything.
        telemetry.configure()
        single = MetricsRegistry()
        queue = create_flush_queue(multiprocessing.get_context())
        try:
            per_worker = {11: (0.25, 0.75), 22: (1.5,)}
            for fake_pid, samples in per_worker.items():
                worker_registry = MetricsRegistry()
                for value in samples:
                    for registry in (worker_registry, single):
                        registry.counter("worker.tasks").add()
                        registry.distribution("worker.eval_seconds").observe(value)
                queue.put((fake_pid, worker_registry.snapshot()))
            drain_flush_queue(queue, label="worker")
        finally:
            queue.close()
        flat = telemetry.registry().flat()
        total_tasks = sum(
            value for key, value in flat.items() if key.startswith("worker.tasks{")
        )
        assert total_tasks == single.flat()["worker.tasks"]
        merged_seconds = sum(
            entry["total"]
            for key, entry in flat.items()
            if key.startswith("worker.eval_seconds{")
        )
        assert merged_seconds == pytest.approx(
            single.flat()["worker.eval_seconds"]["total"]
        )

    def test_worker_init_resets_inherited_state(self):
        # A fork worker inherits the parent's populated registry; the
        # initializer must start it from zero or every parent metric would
        # double on merge.
        telemetry.configure()
        telemetry.registry().counter("parent.only").add(5)
        queue = create_flush_queue(multiprocessing.get_context())
        try:
            init_worker_telemetry(True, queue, shm_bytes=1728)
            flat = telemetry.registry().flat()
            assert "parent.only" not in flat
            assert flat["worker.shm_mapped_bytes"] == 1728.0
            flush_worker_telemetry(queue)
            pid, snapshot = queue.get()
        finally:
            queue.close()
        assert pid == os.getpid()
        gauges = {entry["name"]: entry["value"] for entry in snapshot["gauges"]}
        assert gauges["worker.shm_mapped_bytes"] == 1728.0

    def test_worker_init_disabled_keeps_telemetry_off(self):
        telemetry.configure()
        init_worker_telemetry(False, None)
        assert not telemetry.is_enabled()

    def test_drain_into_disabled_parent_discards_silently(self):
        queue = create_flush_queue(multiprocessing.get_context())
        try:
            queue.put((1, MetricsRegistry().snapshot()))
            assert not telemetry.is_enabled()
            drain_flush_queue(queue)  # must not raise, must not enable
        finally:
            queue.close()
        assert not telemetry.is_enabled()


class TestDomainIntegration:
    def test_two_worker_pool_merges_per_worker_stats(self):
        telemetry.configure()
        workload = _workload()
        rng = np.random.default_rng(9)
        histogram = rng.random(workload.join_query.shape)
        evaluator = WorkloadEvaluator(workload, mode="domain", workers=2)
        try:
            for _ in range(2):
                evaluator.answers_on_histogram(histogram)
            num_shards = len(evaluator.backend.slice_plan())
            assert num_shards >= 2
        finally:
            evaluator.close()  # joins the pool and drains the flush queue
        flat = telemetry.registry().flat()
        dispatches = flat["pool.dispatches{backend=domain}"]
        assert dispatches == 2.0
        worker_tasks = {
            key: value
            for key, value in flat.items()
            if key.startswith("worker.tasks{")
        }
        # Every dispatched shard task is accounted to exactly one worker.
        assert sum(worker_tasks.values()) == dispatches * num_shards
        # Per-worker series stay distinguishable by pid label.
        assert all("worker=" in key for key in worker_tasks)
        shm_gauges = [
            value
            for key, value in flat.items()
            if key.startswith("worker.shm_mapped_bytes{")
        ]
        assert shm_gauges and all(value > 0 for value in shm_gauges)
        eval_seconds = [
            entry
            for key, entry in flat.items()
            if key.startswith("worker.eval_seconds{")
        ]
        assert sum(entry["count"] for entry in eval_seconds) == dispatches * num_shards

    def test_chunked_slices_merge_worker_decode_counts(self):
        """The chunked scan's decode counters reach the parent per worker."""
        telemetry.configure()
        workload = _workload()
        histogram = np.ones(workload.join_query.shape)
        evaluator = WorkloadEvaluator(
            workload, mode="domain", workers=2, sparse_cell_budget=1, chunk_size=16
        )
        try:
            evaluator.answers_on_histogram(histogram)
            slices = evaluator.backend.slice_plan()
        finally:
            evaluator.close()
        flat = telemetry.registry().flat()
        decoded = {
            key: value for key, value in flat.items() if key.startswith("chunks.decoded{")
        }
        assert decoded and all("worker=" in key for key in decoded)
        # Chunk-aligned slices: every chunk is decoded exactly once overall.
        chunks = sum(-(-(hi - lo) // 16) for lo, hi in slices)
        assert chunks == -(-workload.join_query.joint_domain_size // 16)
        assert sum(decoded.values()) == chunks
        assert flat["pool.dispatches{backend=domain}"] == 1.0
