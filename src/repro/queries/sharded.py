"""The process-pool evaluation backend: a domain partitioned across workers.

:class:`DomainShardedBackend` (``mode="domain"``) partitions the flat joint
domain into contiguous slices, one per worker of a persistent
``multiprocessing`` pool.  Each slice is backed by its own
:mod:`multiprocessing.shared_memory` segment of ``8·(slice length)`` bytes
that its worker maps — the full ``8·|D|`` histogram never exists as one
allocation anywhere.  An evaluation ships only a task id per slice, never
the histogram, and the PMW inner loop's in-place support deltas (see
:class:`~repro.queries.backends.HistogramSession`) are visible to the
workers the moment they are written.

While the total support fits the sparse cell budget, the packed CSR is
split at the slice bounds into one slice-local ``csr_matrix`` per shard;
beyond it each worker runs the chunked scan
(:func:`~repro.queries.backends.scan_answers`) over its chunk-aligned
slice.  Per-query answers are the sum of per-slice partial sums (combined
in fixed slice order), and a renormalisation is a local scale per slice
plus one scalar all-reduce for the total.  With a uniform
:class:`~repro.queries.backends.HistogramSeed` the parent process never
allocates ``|D|`` cells either.  Cross-slice partial sums reassociate float
additions, so answers match serial sparse to 1e-9 relative (not bitwise);
PMW *selections* remain bitwise reproducible under a fixed seed, which E18
asserts.

Worker start-up prefers the ``fork`` context: the slice matrices (or chunk
plans) are inherited copy-on-write through a module-level state table and
are never pickled.  On platforms without ``fork`` the state is shipped
once per worker through the pool initializer.  Pool and shared memory
(one segment per domain slice) are torn down by ``close()`` or, failing
that, a ``weakref.finalize`` when the backend is garbage-collected.

**A dead worker.**  A worker that dies (killed, out of memory) breaks the
whole ``ProcessPoolExecutor``.  The histogram lives in parent-owned
segments and the worker state in the parent's table, so an evaluation that
meets a broken pool starts one new pool from the same state and segments
and resubmits its shards — the histogram contents survive, and the answers
are those of an unbroken pool.  A pool that breaks again within the same
evaluation raises.  Restarts count on ``pool.restarts{backend=<name>}``,
evaluations on ``pool.dispatches{backend=<name>}``.

**Telemetry.**  While the parent records
(:func:`repro.telemetry.configure`), each pool worker is handed a flush
queue through the pool initializer and records into its *own* per-process
registry (task counts, per-shard evaluation seconds, mapped shared-memory
bytes, chunk-decode timings from the chunked scan).  A
``multiprocessing.util.Finalize`` hook — pool workers exit through
``os._exit`` and skip ``atexit`` — flushes each worker's snapshot onto the
queue at worker shutdown; :func:`_shutdown` drains the queue after the pool
joins and merges every snapshot into the parent registry under a
``worker=<pid>`` label, so per-worker stats survive the pool.
"""

from __future__ import annotations

import itertools
import multiprocessing
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

import numpy as np

from repro.queries.backends import (
    EvaluatorContext,
    HistogramSeed,
    HistogramSession,
    scan_answers,
    streaming_scratch_bytes,
)
from repro.queries.vectorized import SparseBackend, slice_matrix
from repro.telemetry import (
    is_enabled as _telemetry_enabled,
    registry as _telemetry_registry,
)
from repro.telemetry.workers import (
    create_flush_queue,
    drain_flush_queue,
    init_worker_telemetry,
)

#: Per-process table of worker states, keyed by backend instance key.  In
#: the parent it holds the authoritative state; ``fork`` workers inherit it
#: copy-on-write, ``spawn`` workers rebuild their entry in the initializer.
_WORKER_STATES: dict[int, dict] = {}

_BACKEND_KEYS = itertools.count(1)


def _init_worker(
    key: int,
    segments: tuple[tuple[str, int], ...],
    payload: dict | None,
    telemetry_init: tuple[bool, object] | None = None,
) -> None:
    """Pool initializer: attach the per-slice histogram segments (spawn only).

    Under ``fork`` the state table is inherited and ``payload`` is ``None``;
    under ``spawn`` the pickled slice data arrives here and every slice
    segment is re-attached by its shared-memory ``(name, length)``.

    ``telemetry_init`` is ``(enabled, flush queue)`` from the parent.  The
    worker's telemetry is initialised *before* the fork early-return: a
    ``fork`` worker inherits the parent's populated registry copy-on-write,
    so it must be reset to a fresh one (or disabled outright) either way —
    otherwise the parent's own counts would be merged back in twice.
    """
    enabled, flush_queue = telemetry_init if telemetry_init is not None else (False, None)
    init_worker_telemetry(
        enabled,
        flush_queue,
        shm_bytes=sum(8 * length for _name, length in segments),
    )
    if payload is None:
        return
    views = []
    mappings = []
    for shm_name, length in segments:
        shm = shared_memory.SharedMemory(name=shm_name)
        try:  # the parent owns the segment; workers must not track (or unlink) it
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
        except (ImportError, AttributeError, OSError):
            # No tracker on this platform, or its pipe is already gone —
            # either way the parent still owns (and will unlink) the segment.
            pass
        views.append(np.ndarray((length,), dtype=np.float64, buffer=shm.buf))
        mappings.append(shm)  # keep the mapping alive for the worker's lifetime
    state = dict(payload)
    state["histograms"] = views
    state["_shms"] = mappings
    _WORKER_STATES[key] = state


def _eval_shard(key: int, shard_id: int) -> np.ndarray:
    """Partial answer vector of one shard against its slice segment.

    Telemetry: while the worker records (see :func:`_init_worker`), every
    task counts on ``worker.tasks`` and times into ``worker.eval_seconds``
    — per-process instruments that reach the parent under a
    ``worker=<pid>`` label when the pool shuts down.
    """
    if _telemetry_enabled():
        registry = _telemetry_registry()
        registry.counter("worker.tasks").add()
        with registry.timer("worker.eval_seconds"):
            return _eval_shard_impl(key, shard_id)
    return _eval_shard_impl(key, shard_id)


def _eval_shard_impl(key: int, shard_id: int) -> np.ndarray:
    # The shard owns one contiguous domain slice in its own segment; support
    # indices were re-indexed slice-locally at start-up.
    state = _WORKER_STATES[key]
    histogram = state["histograms"][shard_id]
    if state["representation"] == "csr":
        return state["slice_matrices"][shard_id] @ histogram
    start, end = state["slices"][shard_id]
    return scan_answers(
        state["shape"], state["plans"], histogram, start, end,
        state["chunk_size"], offset=start,
    )


def _new_pool(workers: int, pool_spec: tuple) -> ProcessPoolExecutor:
    """A worker pool from ``(mp_context, initializer arguments)``."""
    mp_context, initargs = pool_spec
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp_context,
        initializer=_init_worker,
        initargs=initargs,
    )


def _stop_pool(executor: ProcessPoolExecutor) -> None:
    """Shut a pool down, tolerating one whose workers are already gone."""
    try:
        executor.shutdown(wait=True, cancel_futures=True)
    except (OSError, RuntimeError):
        # BrokenProcessPool (a RuntimeError) or dead pipes: the workers are
        # already gone, which is all shutdown was for.
        pass


def _shutdown(
    executor: ProcessPoolExecutor,
    shms: list[shared_memory.SharedMemory],
    key: int,
    telemetry_queue=None,
) -> None:
    """Tear down one backend's pool, state entry, and shared-memory segments.

    With a ``telemetry_queue``, the workers' flushed snapshots are drained
    *after* the pool joins (every worker's exit hook has run by then) and
    merged into the parent registry under per-pid ``worker`` labels.
    """
    _stop_pool(executor)
    if telemetry_queue is not None:
        drain_flush_queue(telemetry_queue, label="worker")
        try:
            telemetry_queue.close()
        except OSError:
            pass
    _WORKER_STATES.pop(key, None)
    _release_segments(shms)


def _release_segments(shms: list[shared_memory.SharedMemory]) -> None:
    """Close and unlink every segment, tolerating ones already gone."""
    for shm in shms:
        try:
            shm.close()
        except (BufferError, OSError):
            # A still-exported view blocks the mmap close; unlink below
            # still removes the segment from /dev/shm.
            pass
        try:
            # Unlink independently of close(): a still-exported buffer view
            # must not leave the segment behind in /dev/shm.
            shm.unlink()
        except OSError:
            pass


def _plan_domain_slices(
    domain_size: int, shards: int, chunk_size: int | None = None
) -> list[tuple[int, int]]:
    """Balanced contiguous ``[lo, hi)`` slices of the flat domain.

    With ``chunk_size`` the bounds are chunk-aligned so a slice scan sees
    exactly the chunks a full-domain scan would, just partitioned.  Tiny
    domains may yield fewer slices than requested (bounds deduplicate).
    """
    if chunk_size:
        num_chunks = -(-domain_size // chunk_size)
        bounds = sorted(
            {
                min(round(num_chunks * i / shards) * chunk_size, domain_size)
                for i in range(shards + 1)
            }
        )
    else:
        bounds = sorted({round(domain_size * i / shards) for i in range(shards + 1)})
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


class DomainHistogramSession(HistogramSession):
    """A histogram session over per-slice shared-memory segments.

    Every op of the delta protocol is a slice-local write against the
    segments the workers map — the histogram never exists as one buffer:

    - ``scale_support`` splits the (sorted) support indices at the slice
      bounds by binary search and rescales each slice locally;
    - ``scale`` / ``fill`` apply to each slice independently;
    - ``total`` sums one local scalar per slice (the one all-reduce a
      renormalisation needs);
    - ``answers`` dispatches shard ids to the pool, which combines the
      per-slice partial answer vectors in fixed slice order;
    - ``accumulate`` / ``averaged_slices`` keep one private accumulator
      per slice, so the averaged PMW iterates are assembled (or streamed)
      slice by slice.
    """

    def __init__(self, backend: "DomainShardedBackend"):
        self._backend = backend
        self._accumulators: list[np.ndarray] | None = None

    def _parts(self) -> list[tuple[int, int, np.ndarray]]:
        return self._backend._slice_views()

    def answers(self) -> np.ndarray:
        return self._backend._dispatch()

    def scale_support(self, indices: np.ndarray, factors: np.ndarray) -> None:
        if indices.size and np.any(np.diff(indices) < 0):
            raise ValueError(
                "scale_support on a domain-partitioned session requires "
                "ascending indices (query supports are built sorted)"
            )
        for lo, hi, view in self._parts():
            first = int(np.searchsorted(indices, lo, side="left"))
            last = int(np.searchsorted(indices, hi, side="left"))
            if first < last:
                view[indices[first:last] - lo] *= factors[first:last]

    def scale(self, factor: float) -> None:
        for _lo, _hi, view in self._parts():
            view *= factor

    def fill(self, value: float) -> None:
        for _lo, _hi, view in self._parts():
            view.fill(value)

    def total(self) -> float:
        return float(sum(float(view.sum()) for _lo, _hi, view in self._parts()))

    def accumulate(self) -> None:
        parts = self._parts()
        if self._accumulators is None:
            self._accumulators = [np.zeros_like(view) for _lo, _hi, view in parts]
        for accumulator, (_lo, _hi, view) in zip(self._accumulators, parts):
            accumulator += view

    def averaged_slices(self, divisor: float):
        parts = self._parts()
        if self._accumulators is None:
            for lo, hi, _view in parts:
                yield lo, hi, np.zeros(hi - lo, dtype=np.float64)
        else:
            for accumulator, (lo, hi, _view) in zip(self._accumulators, parts):
                yield lo, hi, accumulator / float(divisor)

    def close(self) -> None:
        self._backend._session_open = False


class DomainShardedBackend(SparseBackend):
    """Domain-partitioned parallel evaluation: each shard owns a domain slice.

    Every pool worker owns a contiguous slice of the flat joint domain
    backed by its own shared-memory segment of ``8·(slice length)`` bytes,
    so no single allocation anywhere holds the full histogram — the
    representation that scales past histograms one address space cannot
    hold.

    Two slice representations: while the total support fits the sparse
    budget the concatenated CSR entries are split at the slice bounds with
    flat indices re-indexed slice-locally (``representation == "csr"``);
    beyond it each shard runs the chunked scan over its (chunk-aligned)
    slice (``representation == "chunked"``).

    Cross-slice answer sums reassociate float additions, so answers match
    the serial sparse backend to 1e-9 relative rather than bitwise; PMW
    query selections remain bitwise reproducible under a fixed seed (the
    E18 benchmark asserts both).  Opt-in only (``mode="domain"``): the
    automatic choice never picks it, and ``workers`` only sizes its pool.
    """

    name = "domain"

    def __init__(self, context: EvaluatorContext):
        super().__init__(context)
        self._executor: ProcessPoolExecutor | None = None
        # What a restart needs: (mp_context, initializer arguments).
        self._pool_spec: tuple | None = None
        self._shms: list[shared_memory.SharedMemory] | None = None
        self._views: list[np.ndarray] | None = None
        # The flat [lo, hi) domain slice each segment holds, in shard order.
        self._segments: list[tuple[int, int]] = []
        self._key: int | None = None
        self._finalizer: weakref.finalize | None = None
        self._session_open = False

    @classmethod
    def normalize_workers(cls, workers: int) -> int:
        """A process pool implies parallelism: the worker count floors at two."""
        return max(2, super().normalize_workers(workers))

    @property
    def representation(self) -> str:
        """``"csr"`` while the supports fit the sparse budget, else ``"chunked"``."""
        return "csr" if self._context.supports_fit_budget() else "chunked"

    def query_support(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        if self._context.supports_fit_budget():
            return super().query_support(index)
        # The chunked representation behaves like streaming: cache within
        # the budget only, preserving the bounded-memory guarantee.
        saved, self.caches_all_supports = self.caches_all_supports, False
        try:
            return super().query_support(index)
        finally:
            self.caches_all_supports = saved

    # -- pool management --------------------------------------------------
    def _worker_state(self) -> dict:
        """Per-slice CSR matrices or scan plans, and the slices themselves."""
        context = self._context
        state: dict = {"representation": self.representation}
        if self.representation == "csr":
            slices = _plan_domain_slices(context.domain_size, self._workers)
            packed = self._ensure_packed()
            state["slice_matrices"] = [slice_matrix(packed, lo, hi) for lo, hi in slices]
        else:
            slices = _plan_domain_slices(
                context.domain_size, self._workers, context.config.chunk_size
            )
            state["shape"] = context.shape
            state["chunk_size"] = context.config.chunk_size
            state["plans"] = context.chunk_plans()
        state["slices"] = slices
        return state

    def _start(self) -> None:
        if self._executor is not None:
            return
        state = self._worker_state()
        segments = state["slices"]
        key = next(_BACKEND_KEYS)
        shms: list[shared_memory.SharedMemory] = []
        try:
            views = []
            for lo, hi in segments:
                shm = shared_memory.SharedMemory(create=True, size=max(8 * (hi - lo), 8))
                shms.append(shm)
                views.append(np.ndarray((hi - lo,), dtype=np.float64, buffer=shm.buf))
            state["histograms"] = views
            # Under fork the workers inherit this entry (and the shm mappings)
            # copy-on-write; nothing is pickled.  Under spawn the initializer
            # rebuilds it from the pickled payload.
            _WORKER_STATES[key] = state
            # Fork only where it is the platform's default start method (Linux):
            # on macOS fork is *available* but unsafe with threads/Accelerate,
            # which is exactly why spawn is the default there.
            use_fork = multiprocessing.get_start_method() == "fork"
            payload = (
                None
                if use_fork
                else {name: value for name, value in state.items() if name != "histograms"}
            )
            mp_context = multiprocessing.get_context("fork" if use_fork else "spawn")
            telemetry_queue = None
            telemetry_init = None
            if _telemetry_enabled():
                # The flush queue travels through initargs — the sanctioned
                # inheritance channel under both fork and spawn.
                telemetry_queue = create_flush_queue(mp_context)
                telemetry_init = (True, telemetry_queue)
            segment_names = tuple(
                (shm.name, hi - lo) for shm, (lo, hi) in zip(shms, segments)
            )
            pool_spec = (mp_context, (key, segment_names, payload, telemetry_init))
            executor = _new_pool(self._workers, pool_spec)
        except BaseException:
            # A failure after any segment was created — mid-way through the
            # per-segment creation loop included — must not leave segments
            # behind in /dev/shm (or a stale state entry).
            _WORKER_STATES.pop(key, None)
            state.pop("histograms", None)
            views = None  # drop the buffer exports before closing the mappings
            _release_segments(shms)
            raise
        self._executor = executor
        self._pool_spec = pool_spec
        self._shms = shms
        self._views = views
        self._segments = segments
        self._key = key
        self._finalizer = weakref.finalize(
            self, _shutdown, executor, shms, key, telemetry_queue
        )

    def _restart_pool(self) -> None:
        """Replace a broken pool by a new one over the same state and segments."""
        assert self._finalizer is not None and self._pool_spec is not None
        executor = _new_pool(self._workers, self._pool_spec)
        _obj, _func, (broken, *teardown), _kwargs = self._finalizer.detach()
        self._finalizer = weakref.finalize(self, _shutdown, executor, *teardown)
        self._executor = executor
        _stop_pool(broken)
        if _telemetry_enabled():
            _telemetry_registry().counter("pool.restarts", backend=self.name).add()

    def _gather(self) -> np.ndarray:
        futures = [
            self._executor.submit(_eval_shard, self._key, shard_id)
            for shard_id in range(len(self._segments))
        ]
        # Partial sums are combined in fixed shard order, keeping the result
        # independent of worker scheduling.
        answers = np.zeros(self._context.num_queries, dtype=np.float64)
        for future in futures:
            answers += future.result()
        return answers

    def _dispatch(self) -> np.ndarray:
        """One parallel evaluation of the current per-slice segment contents.

        A broken pool (a dead worker) is replaced once and the shards are
        resubmitted; a second break raises ``BrokenProcessPool``.
        """
        assert self._executor is not None and self._key is not None
        if _telemetry_enabled():
            _telemetry_registry().counter("pool.dispatches", backend=self.name).add()
        try:
            return self._gather()
        except BrokenProcessPool:
            self._restart_pool()
            return self._gather()

    def _slice_views(self) -> list[tuple[int, int, np.ndarray]]:
        """The ``(lo, hi, segment view)`` of every owned domain slice."""
        self._start()
        assert self._views is not None
        return [
            (lo, hi, view) for (lo, hi), view in zip(self._segments, self._views)
        ]

    def slice_plan(self) -> tuple[tuple[int, int], ...]:
        """The contiguous ``[lo, hi)`` domain slices (starts the pool)."""
        self._start()
        return tuple(self._segments)

    def slice_segment_bytes(self) -> tuple[int, ...]:
        """Allocated bytes of each per-slice segment (starts the pool)."""
        self._start()
        assert self._shms is not None
        return tuple(shm.size for shm in self._shms)

    # -- evaluation -------------------------------------------------------
    def answers_on_histogram(self, flat: np.ndarray) -> np.ndarray:
        if self._session_open:
            raise RuntimeError(
                "a histogram session is open on this domain backend and owns "
                "the shared-memory slices; evaluate through the session or "
                "close it first"
            )
        # Validate before starting the pool or touching the segments: a
        # slice assignment would otherwise broadcast scalars (silently) or
        # fail with an obscure shape error on wrong-length inputs.
        flat = self._context.validated_flat(flat)
        for lo, hi, view in self._slice_views():
            view[:] = flat[lo:hi]
        return self._dispatch()

    def session(self, initial: np.ndarray) -> HistogramSession:
        return self.seeded_session(HistogramSeed.from_array(initial))

    def seeded_session(self, seed: HistogramSeed) -> HistogramSession:
        if self._session_open:
            raise RuntimeError(
                "this domain backend already has an open histogram session "
                "(there is one set of shared-memory slices); close it before "
                "opening another"
            )
        if seed.array is not None:
            seed = HistogramSeed.from_array(self._context.validated_flat(seed.array))
        domain_size = self._context.domain_size
        if seed.is_uniform:
            value = seed.cell_value(domain_size)
            for _lo, _hi, view in self._slice_views():
                view.fill(value)
        else:
            # An array seed is copied one slice at a time.
            for lo, hi, view in self._slice_views():
                view[:] = seed.cells(lo, hi, domain_size)
        self._session_open = True
        return DomainHistogramSession(self)

    # -- lifecycle --------------------------------------------------------
    def estimated_memory(self) -> int:
        """The supports (or one scan chunk per worker) plus one histogram.

        The CSR representation holds the global packed CSR plus its
        slice-local re-indexed copy, 32 bytes per support entry; the
        per-slice segments jointly hold exactly one histogram.
        """
        context = self._context
        if context.supports_fit_budget():
            resident = 32 * context.total_support_size()
        else:
            resident = streaming_scratch_bytes(context) * self._workers
        return resident + 8 * context.domain_size

    def close(self) -> None:
        """Shut down the worker pool and unlink every shared-memory segment."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._executor = None
        self._pool_spec = None
        self._shms = None
        self._views = None
        self._segments = []
        self._session_open = False
