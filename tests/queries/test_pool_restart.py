"""A dead pool worker is replaced once instead of poisoning the evaluator.

Fault injection: a worker of the ``domain`` pool is killed between PMW
rounds, with the CSR and with the chunked slice representation.  The next
evaluation meets the broken pool, starts one new pool over the same worker
state and parent-owned shared-memory segments, and resubmits — so the PMW
run selects, measures and releases exactly what an unfaulted run of the
same backend does, and the restart is counted once on ``pool.restarts``.  A pool that breaks again before the
resubmission completes raises instead of restarting in a loop.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait

import numpy as np
import pytest

from repro import telemetry
from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.queries.evaluation import WorkloadEvaluator
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance

#: ``(id, evaluator kwargs)`` of the pool configurations under test.
BACKENDS = {
    "domain": {},
    "domain-chunked": {"sparse_cell_budget": 1, "chunk_size": 16},
}
CONFIG = PMWConfig(num_iterations=6)


def _setup():
    query = two_table_query(12, 5, 6)
    rng = np.random.default_rng(5)
    r1 = [(int(rng.integers(12)), int(rng.integers(5))) for _ in range(90)]
    r2 = [(int(rng.integers(5)), int(rng.integers(6))) for _ in range(110)]
    instance = Instance.from_tuple_lists(query, {"R1": r1, "R2": r2})
    workload = Workload.attribute_marginals(query, "B").extended(
        Workload.random_sign(query, 8, seed=6, include_counting=False).queries
    )
    return instance, workload


def _pmw(instance, workload, evaluator):
    return private_multiplicative_weights(
        instance, workload, 1.0, 1e-5, 2.0, seed=7, evaluator=evaluator, config=CONFIG
    )


def _kill_one_worker(backend) -> None:
    """SIGKILL one live worker of the backend's pool and wait until it is gone."""
    process = next(iter(backend._executor._processes.values()))
    os.kill(process.pid, signal.SIGKILL)
    assert wait([process.sentinel], timeout=30), "killed worker did not exit"


def _kill_before_dispatch(monkeypatch, backend, call: int) -> None:
    """Kill a worker right before the backend's ``call``-th evaluation."""
    dispatch = backend._dispatch
    calls = []

    def faulty():
        calls.append(None)
        if len(calls) == call:
            _kill_one_worker(backend)
        return dispatch()

    monkeypatch.setattr(backend, "_dispatch", faulty)


def _restarts() -> float:
    return telemetry.registry().flat().get("pool.restarts{backend=domain}", 0.0)


@pytest.fixture
def recording():
    telemetry.configure()
    telemetry.reset()
    yield
    telemetry.disable()


@pytest.mark.parametrize("kwargs", BACKENDS.values(), ids=BACKENDS.keys())
def test_killed_worker_is_replaced_between_rounds(kwargs, monkeypatch, recording):
    instance, workload = _setup()
    unfaulted = WorkloadEvaluator(workload, mode="domain", workers=2, **kwargs)
    try:
        reference = _pmw(instance, workload, unfaulted)
    finally:
        unfaulted.close()
    assert _restarts() == 0

    evaluator = WorkloadEvaluator(workload, mode="domain", workers=2, **kwargs)
    try:
        _kill_before_dispatch(monkeypatch, evaluator.backend, call=3)
        result = _pmw(instance, workload, evaluator)
    finally:
        evaluator.close()
    assert _restarts() == 1
    assert len(result.selected_queries) == CONFIG.num_iterations
    assert result.selected_queries == reference.selected_queries
    assert result.noisy_total == reference.noisy_total
    assert np.array_equal(result.histogram, reference.histogram)


@pytest.mark.parametrize("kwargs", BACKENDS.values(), ids=BACKENDS.keys())
def test_a_second_break_raises_instead_of_looping(kwargs, monkeypatch, recording):
    instance, workload = _setup()
    evaluator = WorkloadEvaluator(workload, mode="domain", workers=2, **kwargs)
    backend = evaluator.backend
    restart = backend._restart_pool

    def restart_then_break():
        restart()
        # Break the fresh pool before the shards are resubmitted.
        killer = backend._executor.submit(os._exit, 1)
        with pytest.raises(BrokenProcessPool):
            killer.result(timeout=30)

    monkeypatch.setattr(backend, "_restart_pool", restart_then_break)
    try:
        _kill_before_dispatch(monkeypatch, backend, call=2)
        with pytest.raises(BrokenProcessPool):
            _pmw(instance, workload, evaluator)
    finally:
        evaluator.close()
    assert _restarts() == 1
