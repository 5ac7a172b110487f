"""Cross-process aggregation: per-worker buffers and the flush/drain protocol.

Pool workers (of the ``domain`` evaluation backend) cannot share the
parent's registry — they are separate processes.  Instead each worker owns a
*fresh* process-local registry and ring (:func:`init_worker_telemetry`,
called from the pool initializer), records into it exactly like the parent
records into its own, and flushes one metrics snapshot onto a
``multiprocessing.SimpleQueue`` when the worker exits.  After the pool shuts
down the parent drains the queue (:func:`drain_flush_queue`) and merges every
snapshot into its registry labelled ``worker=<pid>`` — so per-shard matvec
times, chunk-decode times, task counts, and mapped shared-memory bytes stay
attributable per worker.

The flush is registered through ``multiprocessing.util.Finalize`` rather
than :mod:`atexit`: worker processes leave through
``BaseProcess._bootstrap``/``os._exit``, which runs multiprocessing's
finalizers but not atexit hooks.

Why this shape: the queue travels to the workers through the pool
*initializer arguments*, which the executor passes via the ``Process``
constructor — the one sanctioned channel for inheriting multiprocessing
primitives under both ``fork`` and ``spawn`` start methods.  Snapshots are
small (a few KiB of counters), far below the pipe buffer, so a flushing
worker never blocks against a parent that is still joining it.

Standard library only, like the rest of ``repro.telemetry``.
"""

from __future__ import annotations

import os


def create_flush_queue(mp_context):
    """A ``SimpleQueue`` from the pool's multiprocessing context.

    Created by the parent *before* the pool starts so it can ride the
    initializer arguments; ``None``-safe consumers treat a missing queue as
    telemetry-off.
    """
    return mp_context.SimpleQueue()


def init_worker_telemetry(enabled: bool, flush_queue, shm_bytes: int = 0) -> None:
    """Configure telemetry inside a freshly started pool worker.

    Must run before the worker does any instrumented work (i.e. first thing
    in the pool initializer).  A ``fork`` worker inherits the parent's
    populated registry copy-on-write — starting from it would double-count
    every parent metric on merge — so the worker state is always reset to a
    fresh registry/ring.  When ``enabled`` is false the worker keeps
    telemetry off and nothing is ever flushed.
    """
    from repro import telemetry

    if not enabled or flush_queue is None:
        telemetry.disable()
        return
    telemetry.configure(enabled=True)
    telemetry.reset()
    if shm_bytes:
        telemetry.registry().gauge("worker.shm_mapped_bytes").set(shm_bytes)
    # Run the flush when the worker process exits: _bootstrap runs
    # multiprocessing finalizers (atexit hooks would be skipped by os._exit).
    from multiprocessing.util import Finalize

    Finalize(None, flush_worker_telemetry, args=(flush_queue,), exitpriority=10)


def flush_worker_telemetry(flush_queue) -> None:
    """Push this worker's ``(pid, metrics snapshot)`` onto the flush queue.

    Pipe/queue errors are swallowed: the flush runs during interpreter
    teardown, where a closed pipe must not turn a clean worker exit into a
    crash.  Anything else propagates to multiprocessing's finalizer runner,
    which prints it without changing the exit.
    """
    from repro import telemetry

    try:
        if telemetry.is_enabled():
            flush_queue.put((os.getpid(), telemetry.registry().snapshot()))
    except (OSError, ValueError):
        pass


def drain_flush_queue(flush_queue, label: str = "worker") -> int:
    """Merge every queued worker snapshot into this process's registry.

    Call *after* the pool has shut down (``shutdown(wait=True)`` joins the
    workers, so their exit-time flushes have happened).  Each snapshot is
    merged with a ``<label>=<pid>`` label.  Returns the number of snapshots
    merged.  Queue/pipe errors are swallowed for the same reason as in the
    flush: this also runs from ``weakref.finalize`` during interpreter exit,
    when the queue's pipe may already be torn down.
    """
    from repro import telemetry

    merged = 0
    try:
        registry = telemetry.registry()
        while not flush_queue.empty():
            pid, snapshot = flush_queue.get()
            registry.merge(snapshot, labels={label: str(pid)})
            merged += 1
    except (OSError, EOFError, ValueError):
        pass
    return merged
