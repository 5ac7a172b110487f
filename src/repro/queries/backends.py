"""Workload-evaluation backends and the automatic choice between them.

The release algorithms evaluate workloads through the
:class:`~repro.queries.evaluation.WorkloadEvaluator` facade; the actual
work is done by an :class:`EvaluationBackend`.  A backend owns one
representation of the workload (dense matrix, CSR supports, nothing at
all, CSR slices over a process pool) and answers four questions:

``answers_on_histogram(flat)``
    The full answer vector ``(q(F))_q`` against a flat joint-domain
    histogram (already validated by the facade).
``query_support(index)``
    The CSR-style ``(flat indices, values)`` support of one query — the
    cells the PMW multiplicative update touches.
``support_size(index)``
    The exact number of non-zero joint-domain cells of one query.
``estimated_memory()``
    The resident bytes the backend holds once built.

The automatic choice (:func:`choose_backend`) is one rule over the two
budgets: ``dense`` while ``|Q|·|D|`` fits the cell budget, else ``sparse``
while the total support fits the sparse budget, else ``streaming``.  The
worker count plays no part in it.  This module defines the ``dense`` and
``streaming`` backends and the chunked scan (:func:`scan_answers`) that
``streaming`` shares with the chunked representation of the process-pool
backend; the CSR backend (``sparse``) lives in
:mod:`repro.queries.vectorized` and the process-pool backend (``domain``)
in :mod:`repro.queries.sharded`.  The name table lives in
:mod:`repro.queries.evaluation`.

Shared machinery (exact support-size einsums, chunk plans, chunked support
construction) lives in :class:`EvaluatorContext`, which every backend
receives on construction, so backends only implement the evaluation
strategy itself.

Iterated evaluation (the PMW loop) goes through a
:class:`HistogramSession` — an *operation protocol* (answers, support
rescale, uniform scale/fill, total, accumulate) behind which the histogram
representation is private to the backend: one array, or per-slice
shared-memory segments spread over worker processes.  Sessions are
opened from a declarative :class:`HistogramSeed` (uniform total or
concrete array) via ``seeded_session``, so backends that partition the
domain never materialise ``|D|`` cells for a uniform start.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import ClassVar, Iterator

import numpy as np

from repro.queries.workload import Workload
from repro.telemetry import (
    NULL_SPAN as _NULL_SPAN,
    is_enabled as _telemetry_enabled,
    registry as _telemetry_registry,
    trace as _trace,
)

#: Above this many dense matrix cells (``|Q|·|D|``) the automatic choice
#: stops materialising the full query matrix.
_MATRIX_CELL_BUDGET = 60_000_000

#: Above this many total support entries the automatic choice stops
#: building the sparse CSR form (each entry stores an int64 index and a
#: float64 value).
_SPARSE_CELL_BUDGET = 30_000_000

#: Supports are extracted from a dense per-query joint vector while ``|D|``
#: stays under this budget; larger domains are scanned chunk by chunk.
_DENSE_BUILD_BUDGET = 4_000_000

#: Default joint-domain chunk length for streaming scans.
_DEFAULT_CHUNK_SIZE = 1 << 18


def effective_cpu_count() -> int:
    """CPU cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def iter_decoded_chunks(
    shape: tuple[int, ...], start: int, stop: int, chunk_size: int
) -> Iterator[tuple[int, int, tuple[np.ndarray, ...]]]:
    """Yield ``(chunk_start, chunk_stop, multi)`` over ``[start, stop)``.

    ``multi`` is the flat-to-multi index decode of the chunk — the buffer
    every query scanning the chunk shares, so the decode happens once per
    chunk, never once per query (or per shard).
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    recording = _telemetry_enabled()
    if recording:
        decode_count = _telemetry_registry().counter("chunks.decoded")
        decode_seconds = _telemetry_registry().distribution("chunks.decode_seconds")
    for lo in range(start, stop, chunk_size):
        hi = min(lo + chunk_size, stop)
        began = time.perf_counter_ns() if recording else 0
        multi = np.unravel_index(np.arange(lo, hi, dtype=np.int64), shape)
        if recording:
            decode_seconds.observe((time.perf_counter_ns() - began) / 1e9)
            decode_count.add()
        yield lo, hi, multi


#: A query's chunk plan: per-relation ``(joint axes, weights)`` factors.
ChunkPlan = tuple[tuple[tuple[int, ...], np.ndarray], ...]


def plan_values(plan: ChunkPlan, multi: tuple[np.ndarray, ...], length: int) -> np.ndarray:
    """One query's values on a decoded chunk: the product of its weight factors."""
    values = np.ones(length, dtype=np.float64)
    for axes, weights in plan:
        values = values * weights[tuple(multi[axis] for axis in axes)]
    return values


def scan_answers(
    shape: tuple[int, ...],
    plans: list[ChunkPlan],
    histogram: np.ndarray,
    start: int,
    stop: int,
    chunk_size: int,
    offset: int = 0,
) -> np.ndarray:
    """Answers of every plan over the flat range ``[start, stop)``, chunk by chunk.

    The one chunked scan: the ``streaming`` backend runs it over the whole
    domain, the chunked representation of ``domain`` over each worker's
    slice.  ``histogram`` holds the cells of the range starting at
    flat index ``offset``.  Chunks are visited in ascending order and each
    query's partial sums accumulate in that order, so a scan is
    deterministic and the extra memory is one chunk.
    """
    answers = np.zeros(len(plans), dtype=np.float64)
    for lo, hi, multi in iter_decoded_chunks(shape, start, stop, chunk_size):
        chunk = histogram[lo - offset : hi - offset]
        for index, plan in enumerate(plans):
            answers[index] += float(plan_values(plan, multi, hi - lo) @ chunk)
    return answers


def streaming_scratch_bytes(context: "EvaluatorContext") -> int:
    """Per-scan scratch bytes of one chunked streaming pass.

    One chunk of decoded multi-indices (``ndim`` int64 arrays) plus the
    value and histogram-slice buffers; shared by the streaming backend and
    the chunked representation of the process-pool backend so their
    ``estimated_memory`` reports cannot drift apart.
    """
    chunk = min(context.config.chunk_size, context.domain_size)
    return 8 * chunk * (len(context.shape) + 2)


@dataclass(frozen=True)
class EvaluatorConfig:
    """Budgets and knobs shared by every backend of one evaluator."""

    cell_budget: int = _MATRIX_CELL_BUDGET
    sparse_cell_budget: int = _SPARSE_CELL_BUDGET
    chunk_size: int = _DEFAULT_CHUNK_SIZE
    workers: int = 1


class EvaluatorContext:
    """Workload-derived state shared by all backends of one evaluator.

    Owns the exact support-size measurement (an einsum over the non-zero
    indicators of the per-relation weights — the joint domain is never
    materialised), the per-query chunk plans used by streaming scans, and
    chunked/dense support construction.  Backends hold a reference to one
    context and never duplicate this machinery.
    """

    def __init__(self, workload: Workload, config: EvaluatorConfig):
        if config.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {config.chunk_size}")
        if config.workers < 1:
            raise ValueError(f"workers must be at least 1, got {config.workers}")
        self.workload = workload
        self.config = config
        self.join_query = workload.join_query
        self.shape = self.join_query.shape
        self.domain_size = self.join_query.joint_domain_size
        self._support_sizes: dict[int, int] = {}
        self._chunk_plans: dict[int, ChunkPlan] = {}
        self._supports_fit: bool | None = None

    @property
    def num_queries(self) -> int:
        return len(self.workload)

    def validated_flat(self, histogram: np.ndarray) -> np.ndarray:
        """``histogram`` as a flat float64 vector, or raise on a size mismatch.

        The single validation gate in front of every histogram evaluation:
        the :class:`~repro.queries.evaluation.WorkloadEvaluator` facade and
        the backends that write into owned storage (the domain backend's
        shared-memory slices) both route through it, so a wrong-length or
        scalar input fails loudly instead of broadcasting.
        """
        flat = np.asarray(histogram, dtype=float).reshape(-1)
        if flat.size != self.domain_size:
            raise ValueError(
                f"histogram has {flat.size} cells, expected {self.domain_size}"
            )
        return flat

    # ------------------------------------------------------------------ #
    # support sizes
    # ------------------------------------------------------------------ #
    def support_size(self, index: int) -> int:
        """Exact number of joint-domain cells where query ``index`` is non-zero."""
        cached = self._support_sizes.get(index)
        if cached is not None:
            return cached
        from repro.relational.join import _letters_for, contract

        letters = _letters_for(self.join_query)
        operands = []
        terms = []
        for schema, table_query in zip(
            self.join_query.relations, self.workload[index].table_queries
        ):
            operands.append((table_query.weights != 0.0).astype(np.int64))
            terms.append("".join(letters[name] for name in schema.attribute_names))
        subscript = ",".join(terms) + "->"
        size = int(contract(subscript, *operands))
        self._support_sizes[index] = size
        return size

    def note_support_size(self, index: int, size: int) -> None:
        """Record a support size observed as a by-product of a support build."""
        self._support_sizes.setdefault(index, size)

    def total_support_size(self) -> int:
        """``Σ_q nnz(q)``: the number of entries the sparse CSR form stores."""
        return sum(self.support_size(index) for index in range(self.num_queries))

    def supports_fit_budget(self) -> bool:
        """Whether the total support fits the sparse cell budget.

        Measured lazily with an early stop: once the accumulated support
        exceeds the budget no further queries are counted, so rejecting the
        sparse form on a huge workload stays cheap.
        """
        if self._supports_fit is None:
            budget = self.config.sparse_cell_budget
            total = 0
            fits = True
            for index in range(self.num_queries):
                total += self.support_size(index)
                if total > budget:
                    fits = False
                    break
            self._supports_fit = fits
        return self._supports_fit

    # ------------------------------------------------------------------ #
    # chunked evaluation plans
    # ------------------------------------------------------------------ #
    def chunk_plan(self, index: int) -> ChunkPlan:
        """Per-relation ``(joint axes, weights)`` gather plan, all-one factors elided."""
        cached = self._chunk_plans.get(index)
        if cached is not None:
            return cached
        plan: list[tuple[tuple[int, ...], np.ndarray]] = []
        for schema, table_query in zip(
            self.join_query.relations, self.workload[index].table_queries
        ):
            if table_query.is_all_one():
                continue
            axes = tuple(self.join_query.axis_of(name) for name in schema.attribute_names)
            plan.append((axes, table_query.weights))
        result = tuple(plan)
        self._chunk_plans[index] = result
        return result

    def chunk_plans(self) -> list[ChunkPlan]:
        """The chunk plan of every query, in workload order."""
        return [self.chunk_plan(index) for index in range(self.num_queries)]

    def query_values(self, index: int) -> np.ndarray:
        """Flattened joint-domain value vector of one query (dense)."""
        return self.workload[index].joint_values().reshape(-1)

    def build_support(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Construct the ``(flat indices, values)`` support of one query.

        Extracted from a dense joint vector while ``|D|`` fits the build
        budget; scanned chunk by chunk beyond it, so the extra memory stays
        bounded regardless of the domain size.
        """
        if self.domain_size <= _DENSE_BUILD_BUDGET:
            values = self.query_values(index)
            indices = np.flatnonzero(values)
            support = (indices.astype(np.int64), values[indices])
        else:
            index_parts: list[np.ndarray] = []
            value_parts: list[np.ndarray] = []
            for start in range(0, self.domain_size, self.config.chunk_size):
                stop = min(start + self.config.chunk_size, self.domain_size)
                multi = np.unravel_index(np.arange(start, stop, dtype=np.int64), self.shape)
                values = plan_values(self.chunk_plan(index), multi, stop - start)
                nonzero = np.flatnonzero(values)
                if nonzero.size:
                    index_parts.append(nonzero.astype(np.int64) + start)
                    value_parts.append(values[nonzero])
            if index_parts:
                support = (np.concatenate(index_parts), np.concatenate(value_parts))
            else:
                support = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        self.note_support_size(index, int(support[0].size))
        return support


# ---------------------------------------------------------------------- #
# histogram seeds and sessions (the PMW update protocol)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class HistogramSeed:
    """A declarative seed for a histogram session.

    The PMW loop never needs the start histogram as one materialised
    ndarray — it needs a *rule* for what every cell starts at.  A seed
    captures that rule in one of two forms:

    ``uniform(total)``
        Every cell starts at ``total / |D|`` — the PMW start histogram.
        Ships a single scalar, so a partitioned backend seeds each slice
        locally and the parent process never allocates ``|D|`` cells.
    ``from_array(array)``
        A concrete histogram (copied into session storage, slice by slice
        on a partitioned backend).  This is what
        ``histogram_session(initial)`` wraps.

    Exactly one of ``total`` and ``array`` is set; :meth:`cells` realises
    any flat slice and :meth:`materialize` the whole domain.
    """

    total: float | None = None
    array: np.ndarray | None = None

    def __post_init__(self):
        if (self.total is None) == (self.array is None):
            raise ValueError(
                "a HistogramSeed is exactly one of uniform total or concrete array"
            )

    @classmethod
    def uniform(cls, total: float) -> "HistogramSeed":
        """Seed every cell with ``total / domain_size``."""
        total = float(total)
        if not np.isfinite(total) or total < 0.0:
            raise ValueError(f"uniform seed total must be finite and >= 0, got {total}")
        return cls(total=total)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "HistogramSeed":
        """Seed from a concrete histogram (flattened, copied on use)."""
        return cls(array=np.asarray(array, dtype=np.float64).reshape(-1))

    @property
    def is_uniform(self) -> bool:
        return self.total is not None

    def cell_value(self, domain_size: int) -> float:
        """The per-cell value of a uniform seed."""
        if self.total is None:
            raise ValueError("cell_value() is only defined for uniform seeds")
        return self.total / domain_size

    def cells(self, start: int, stop: int, domain_size: int) -> np.ndarray:
        """The seed values of the flat range ``[start, stop)``."""
        if self.total is not None:
            return np.full(stop - start, self.total / domain_size, dtype=np.float64)
        if self.array.size != domain_size:
            raise ValueError(
                f"seed array has {self.array.size} cells, expected {domain_size}"
            )
        return self.array[start:stop]

    def materialize(self, domain_size: int) -> np.ndarray:
        """The whole seed histogram as one flat vector (serial backends only)."""
        return self.cells(0, domain_size, domain_size)


class HistogramSession:
    """The mutable-histogram operation protocol driven by the PMW loop.

    The PMW inner loop owns one session for its whole run: instead of
    handing the backend a fresh histogram every round, it applies in-place
    deltas through these ops and re-asks for answers.  Callers never see
    the backing storage — serial backends keep a private array
    (:class:`ArrayHistogramSession`) and the domain-partitioned backend one
    shared-memory block per contiguous domain slice — so the loop is
    identical against all of them
    and nothing outside the queries package may assume "one flat ndarray"
    (a static-guard test enforces the boundary).

    The ops:

    ``answers()``
        The workload answer vector against the current contents.  A session
        may maintain it incrementally between full evaluations: the
        ``sparse`` session updates it per delta and matches a fresh
        evaluation to 1e-9 relative, while the backends'
        ``answers_on_histogram`` evaluate from scratch.
    ``scale_support(indices, factors)``
        Multiply the cells at ``indices`` by ``factors`` — the PMW support
        delta.  ``indices`` must be sorted ascending (query supports are
        built that way); partitioned sessions split the delta per slice by
        binary search and raise on unsorted input.
    ``scale(factor)`` / ``fill(value)``
        Uniform rescale / reset of every cell — for a partitioned session
        these are purely local slice ops.
    ``total()``
        The scalar mass — for a partitioned session one local sum per
        slice plus a scalar all-reduce.
    ``accumulate()`` / ``averaged_slices(divisor)``
        Running-sum support for the PMW averaged iterates: ``accumulate``
        adds the current contents to a session-held accumulator and
        ``averaged_slices`` yields ``(start, stop, cells)`` of the
        accumulator divided by ``divisor``, slice by slice, so the caller
        can assemble (or stream) the averaged histogram without ever
        reading the live backing array.
    ``close()``
        Release per-session resources.
    """

    def answers(self) -> np.ndarray:
        """Answers of every query against the current histogram contents."""
        raise NotImplementedError

    def scale_support(self, indices: np.ndarray, factors: np.ndarray) -> None:
        """Multiply the cells at sorted ``indices`` by ``factors`` (a support delta)."""
        raise NotImplementedError

    def scale(self, factor: float) -> None:
        """Multiply every cell by ``factor`` (renormalisation)."""
        raise NotImplementedError

    def fill(self, value: float) -> None:
        """Reset every cell to ``value``."""
        raise NotImplementedError

    def total(self) -> float:
        """The total mass of the current histogram contents."""
        raise NotImplementedError

    def accumulate(self) -> None:
        """Add the current contents to the session's running accumulator."""
        raise NotImplementedError

    def averaged_slices(self, divisor: float) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, cells)`` of the accumulator divided by ``divisor``.

        Slices are disjoint, ascending, and cover the whole domain; with no
        prior :meth:`accumulate` the cells are zero.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release per-session resources (no-op for serial backends)."""


class ArrayHistogramSession(HistogramSession):
    """The dense implementation: one flat float64 array in this process.

    A session owns its array outright: the seed histogram is *copied* into
    a private array, so session mutations never touch the caller's input.
    The accumulator is allocated lazily on the first :meth:`accumulate`, so
    ops-only consumers (renormalisation tests, one-shot evaluations) never
    pay for it.
    """

    def __init__(self, backend: "EvaluationBackend", array: np.ndarray):
        self._backend = backend
        self._array = array
        self._accumulator: np.ndarray | None = None

    def answers(self) -> np.ndarray:
        return self._backend.answers_on_histogram(self._array)

    def scale_support(self, indices: np.ndarray, factors: np.ndarray) -> None:
        self._array[indices] *= factors

    def scale(self, factor: float) -> None:
        self._array *= factor

    def fill(self, value: float) -> None:
        self._array.fill(value)

    def total(self) -> float:
        return float(self._array.sum())

    def accumulate(self) -> None:
        if self._accumulator is None:
            self._accumulator = np.zeros_like(self._array)
        self._accumulator += self._array

    def averaged_slices(self, divisor: float) -> Iterator[tuple[int, int, np.ndarray]]:
        if self._accumulator is None:
            yield 0, self._array.size, np.zeros(self._array.size, dtype=np.float64)
        else:
            yield 0, self._accumulator.size, self._accumulator / float(divisor)


# ---------------------------------------------------------------------- #
# the backend protocol and the automatic choice
# ---------------------------------------------------------------------- #
class EvaluationBackend:
    """Base class of every evaluation backend.

    Subclasses set ``name`` and implement ``answers_on_histogram`` /
    ``_build_support`` / ``estimated_memory``.  The base class provides
    budget-capped support caching: backends whose primary representation
    *is* the support set (``caches_all_supports``) keep every support; the
    others only cache within the sparse cell budget so e.g. streaming keeps
    its bounded-memory guarantee.
    """

    name: ClassVar[str]
    caches_all_supports: ClassVar[bool] = False

    def __init__(self, context: EvaluatorContext):
        self._context = context
        # The backend's own effective count: normalised at construction so a
        # directly built backend and the facade paths (WorkloadEvaluator,
        # shared_evaluator) cannot disagree, without mutating the caller's
        # context.
        self._workers = self.normalize_workers(context.config.workers)
        self._supports: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._cached_support_entries = 0

    @property
    def workers(self) -> int:
        """The effective worker count this backend runs with."""
        return self._workers

    @classmethod
    def normalize_workers(cls, workers: int) -> int:
        """The effective worker count for a requested one.

        Backends with a parallelism floor (the domain backend implies at
        least two workers) override this; every construction path — direct
        backend construction, ``WorkloadEvaluator``, ``shared_evaluator`` —
        normalises through it, so the invariant lives in exactly one place.
        Invalid counts are rejected, not clamped: a floor is a documented
        convenience, silently absorbing a caller's typo is not.
        """
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        return workers

    # -- evaluation -------------------------------------------------------
    def answers_on_histogram(self, flat: np.ndarray) -> np.ndarray:
        """Answers against a flat float64 histogram (validated by the facade)."""
        raise NotImplementedError

    def session(self, initial: np.ndarray) -> HistogramSession:
        """Open a mutable histogram session seeded with a copy of ``initial``."""
        return ArrayHistogramSession(self, np.array(initial, dtype=np.float64))

    def seeded_session(self, seed: HistogramSeed) -> HistogramSession:
        """Open a histogram session from a declarative :class:`HistogramSeed`.

        The base implementation realises the seed as one flat vector and
        copies it into session storage — correct for every backend whose
        session holds the full histogram anyway.  Partitioned backends
        override this to seed each owned slice locally, so a uniform seed
        never allocates ``|D|`` cells in the parent.
        """
        if seed.array is not None:
            return self.session(self._context.validated_flat(seed.array))
        return self.session(seed.materialize(self._context.domain_size))

    # -- supports ---------------------------------------------------------
    def support_size(self, index: int) -> int:
        return self._context.support_size(index)

    def _build_support(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        return self._context.build_support(index)

    def query_support(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style ``(flat indices, values)`` support of one query, cached."""
        cached = self._supports.get(index)
        if cached is not None:
            return cached
        support = self._build_support(index)
        size = int(support[0].size)
        if (
            self.caches_all_supports
            or self._cached_support_entries + size <= self._context.config.sparse_cell_budget
        ):
            self._supports[index] = support
            self._cached_support_entries += size
        self._context.note_support_size(index, size)
        return support

    # -- lifecycle --------------------------------------------------------
    def estimated_memory(self) -> int:
        """Resident bytes this backend holds once built."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker pools, shared memory, ...)."""


def choose_backend(context: EvaluatorContext) -> str:
    """The automatic choice: the first of three checks that holds.

    ``dense`` while ``|Q|·|D|`` fits the cell budget, else ``sparse`` while
    the measured total support fits the sparse budget, else ``streaming``.
    The support measurement only runs once the dense check has failed, and
    the worker count is never read: it only sizes the opt-in ``domain``
    pool.

    Telemetry: while recording, the decision becomes an
    ``evaluator.choose_backend`` span whose ``chosen`` attribute names the
    backend, and counts on ``evaluator.backend_choice{backend=<name>}``.
    """
    recording = _telemetry_enabled()
    span_ctx = (
        _trace(
            "evaluator.choose_backend",
            queries=context.num_queries,
            domain=context.domain_size,
        )
        if recording
        else _NULL_SPAN
    )
    with span_ctx as span:
        if context.num_queries * context.domain_size <= context.config.cell_budget:
            name = "dense"
        elif context.supports_fit_budget():
            name = "sparse"
        else:
            name = "streaming"
        if recording:
            span.set(chosen=name)
            _telemetry_registry().counter("evaluator.backend_choice", backend=name).add()
    return name


# ---------------------------------------------------------------------- #
# built-in serial backends
# ---------------------------------------------------------------------- #
class DenseBackend(EvaluationBackend):
    """The full ``|Q| × |D|`` float64 query matrix; answers are one matmul."""

    name = "dense"

    def __init__(self, context: EvaluatorContext):
        super().__init__(context)
        matrix = np.empty((context.num_queries, context.domain_size), dtype=np.float64)
        for row in range(context.num_queries):
            matrix[row] = context.query_values(row)
        self.matrix = matrix

    def answers_on_histogram(self, flat: np.ndarray) -> np.ndarray:
        return self.matrix @ flat

    def _build_support(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        row = self.matrix[index]
        indices = np.flatnonzero(row)
        return (indices.astype(np.int64), row[indices])

    def query_values(self, index: int) -> np.ndarray:
        return self.matrix[index]

    def estimated_memory(self) -> int:
        return 8 * self.matrix.size


class StreamingBackend(EvaluationBackend):
    """No per-query state: chunked joint-domain scans recompute values on the fly."""

    name = "streaming"

    def answers_on_histogram(self, flat: np.ndarray) -> np.ndarray:
        context = self._context
        return scan_answers(
            context.shape,
            context.chunk_plans(),
            flat,
            0,
            context.domain_size,
            context.config.chunk_size,
        )

    def estimated_memory(self) -> int:
        return streaming_scratch_bytes(self._context)
