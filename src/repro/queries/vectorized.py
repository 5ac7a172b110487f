"""The CSR evaluation backend (``mode="sparse"``) and its shared kernels.

:class:`SparseBackend` stores one ``(flat indices, values)`` support per
query — only the joint-domain cells where the query is non-zero — and
*compiles the whole workload once* into one packed CSR
(:class:`PackedWorkload`: the concatenated supports, ``indptr`` /
``indices`` / ``values``).  ``answers_on_histogram`` is then a single
``scipy.sparse.csr_matrix`` matvec: one C loop that accumulates each row
over its entries in index order.  Memory is ``16·Σ_q nnz(q)`` bytes
instead of the dense backend's ``8·|Q|·|D|``.

PMW sessions (:class:`IncrementalHistogramSession`) evaluate once and then
maintain the answer vector per support delta through a :class:`ColumnView`
— the packed entries grouped by domain cell, ``8·nnz + 4·|D|`` bytes — so
a round costs the selected support's column entries instead of a full
``Σnnz`` matvec.  Maintained answers agree with a fresh evaluation to 1e-9
relative (the delta sums reassociate); ``answers_on_histogram`` evaluates
from scratch.

The packed CSR, the matrix and the column view depend only on the
workload, so they are cached on the workload object
(``workload.private_cache("vectorized")``) and shared by every evaluator
over it.  :func:`slice_matrix` cuts the same CSR at domain-slice bounds
for the ``domain`` backend's workers.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.queries.backends import (
    ArrayHistogramSession,
    EvaluationBackend,
    EvaluatorContext,
    HistogramSession,
)
from repro.telemetry import (
    NULL_SPAN as _NULL_SPAN,
    is_enabled as _telemetry_enabled,
    registry as _telemetry_registry,
    trace as _trace,
)

#: Name of the per-workload cache bucket holding the packed CSR and kernels.
_CACHE_NAME = "vectorized"


class PackedWorkload:
    """A whole workload compiled into one packed CSR.

    Holds the concatenated supports (``indptr``/``indices``/``values``).
    Derived only from the workload, so one instance is cached per workload
    and shared by every evaluator over it.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.num_queries = int(self.indptr.size - 1)
        self.total_entries = int(self.indptr[-1])

    def query_slice(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(indices, values)`` support of one query."""
        lo, hi = int(self.indptr[index]), int(self.indptr[index + 1])
        return self.indices[lo:hi], self.values[lo:hi]

    def matrix(self, domain_size: int) -> sparse.csr_matrix:
        """The packed CSR as a ``(|Q|, |D|)`` scipy matrix."""
        return sparse.csr_matrix(
            (self.values, self.indices, self.indptr),
            shape=(self.num_queries, int(domain_size)),
        )


class ColumnView:
    """Column-major index of a :class:`PackedWorkload`: the entries of each cell.

    ``order`` lists the packed CSR entry positions grouped by domain cell
    (a stable sort, so each cell's entries stay in query order), ``rows``
    the query row of each listed entry, and ``indptr`` delimits the group
    of every cell.  All three are int32 whenever the sizes fit, so the view
    costs ``8·nnz + 4·|D|`` bytes.  One view is cached per workload next to
    the packed CSR.
    """

    def __init__(self, packed: PackedWorkload, domain_size: int):
        domain_size = int(domain_size)
        fits = max(packed.total_entries, domain_size) < np.iinfo(np.int32).max
        index_dtype = np.int32 if fits else np.int64
        self.indptr = np.zeros(domain_size + 1, dtype=index_dtype)
        np.cumsum(np.bincount(packed.indices, minlength=domain_size), out=self.indptr[1:])
        self.order = np.argsort(packed.indices, kind="stable").astype(index_dtype)
        row_of_entry = np.repeat(
            np.arange(packed.num_queries, dtype=index_dtype), np.diff(packed.indptr)
        )
        self.rows = row_of_entry[self.order]
        self.total_entries = packed.total_entries
        self._values = packed.values
        self._num_queries = packed.num_queries

    def spans(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, counts)`` of the column groups of ``cells``."""
        starts = self.indptr[cells].astype(np.int64)
        return starts, self.indptr[cells + 1] - starts

    def matvec(self, starts: np.ndarray, counts: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """``Q[:, cells] @ deltas`` for the column groups ``(starts, counts)``."""
        total = int(counts.sum())
        # Entry k of the gathered run belongs to group g(k) and sits at
        # starts[g] + (k - first[g]); one repeat builds that offset per entry.
        first = np.cumsum(counts) - counts
        positions = np.arange(total, dtype=np.int64) + np.repeat(starts - first, counts)
        weights = self._values[self.order[positions]] * np.repeat(deltas, counts)
        return np.bincount(self.rows[positions], weights=weights, minlength=self._num_queries)


class IncrementalHistogramSession(ArrayHistogramSession):
    """An array session that keeps the answer vector current across deltas.

    The histogram ops are exactly those of :class:`ArrayHistogramSession`.
    Answers are computed once through the CSR matvec, then maintained: a
    support delta adds ``Q[:, cells] @ (h_new - h_old)[cells]`` read
    through the :class:`ColumnView`, and a uniform rescale multiplies the
    cached vector.  A PMW round therefore costs the selected support's
    column entries instead of a full ``Σnnz`` matvec.  The maintained
    answers agree with a fresh evaluation to 1e-9 relative, not bitwise
    (the delta sums reassociate).  :meth:`fill`, and a delta whose column
    entries exceed half of ``Σnnz`` (a counting query, say) — where the
    gather costs more than a full matvec — drop the cache, and the next
    :meth:`answers` recomputes.
    """

    def __init__(self, backend: "SparseBackend", array: np.ndarray, columns: ColumnView):
        super().__init__(backend, array)
        self._columns = columns
        self._answers: np.ndarray | None = None

    def answers(self) -> np.ndarray:
        if self._answers is None:
            self._answers = super().answers()
        return self._answers.copy()

    def scale_support(self, indices: np.ndarray, factors: np.ndarray) -> None:
        if self._answers is not None:
            starts, counts = self._columns.spans(indices)
            if 2 * int(counts.sum()) <= self._columns.total_entries:
                old = self._array[indices]
                new = old * factors
                self._array[indices] = new
                self._answers = self._answers + self._columns.matvec(
                    starts, counts, new - old
                )
                return
            self._answers = None
        super().scale_support(indices, factors)

    def scale(self, factor: float) -> None:
        super().scale(factor)
        if self._answers is not None:
            self._answers = self._answers * factor

    def fill(self, value: float) -> None:
        super().fill(value)
        self._answers = None


def slice_matrix(packed: PackedWorkload, lo: int, hi: int) -> sparse.csr_matrix:
    """The ``(|Q|, hi - lo)`` CSR of the entries in domain slice ``[lo, hi)``.

    Column indices are re-indexed slice-locally; each row keeps its
    entries in their packed order.
    """
    inside = (packed.indices >= lo) & (packed.indices < hi)
    # Entries of the slice before each row start: the slice's row pointers.
    before = np.concatenate(([0], np.cumsum(inside)))
    return sparse.csr_matrix(
        (packed.values[inside], packed.indices[inside] - np.int64(lo), before[packed.indptr]),
        shape=(packed.num_queries, hi - lo),
    )


class SparseBackend(EvaluationBackend):
    """One CSR support per query; answers are one packed CSR matvec.

    The supports are compiled into a :class:`PackedWorkload` cached on the
    workload; sessions are :class:`IncrementalHistogramSession` over the
    cached :class:`ColumnView`.
    """

    name = "sparse"
    caches_all_supports = True

    def __init__(self, context: EvaluatorContext):
        super().__init__(context)
        self._packed: PackedWorkload | None = None
        self._matrix: sparse.csr_matrix | None = None
        self._columns: ColumnView | None = None

    # -- packed representation --------------------------------------------
    def _concatenated_supports(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated ``(indptr, indices, values)`` of all query supports.

        Re-points the per-query cache at zero-copy slices of the
        concatenated arrays, so both representations share storage.
        """
        supports = [
            self.query_support(index) for index in range(self._context.num_queries)
        ]
        counts = np.array([indices.size for indices, _ in supports], dtype=np.int64)
        indices = (
            np.concatenate([s[0] for s in supports])
            if supports
            else np.empty(0, dtype=np.int64)
        )
        values = (
            np.concatenate([s[1] for s in supports])
            if supports
            else np.empty(0, dtype=np.float64)
        )
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        for index in range(len(supports)):
            lo, hi = int(indptr[index]), int(indptr[index + 1])
            self._supports[index] = (indices[lo:hi], values[lo:hi])
        return indptr, indices, values

    def _point_supports_at(self, packed: PackedWorkload) -> None:
        """Serve supports zero-copy from the cached packed CSR."""
        counts = np.diff(packed.indptr)
        for index in range(packed.num_queries):
            self._supports[index] = packed.query_slice(index)
            self._context.note_support_size(index, int(counts[index]))
        self._cached_support_entries = packed.total_entries

    def _ensure_packed(self) -> PackedWorkload:
        if self._packed is None:
            recording = _telemetry_enabled()
            cache = self._context.workload.private_cache(_CACHE_NAME)
            packed = cache.get("packed")
            if packed is None or packed.num_queries != self._context.num_queries:
                if recording:
                    _telemetry_registry().counter(
                        "workload.cache", bucket=_CACHE_NAME, event="miss"
                    ).add()
                span_ctx = (
                    _trace("sparse.pack", queries=self._context.num_queries)
                    if recording
                    else _NULL_SPAN
                )
                with span_ctx:
                    packed = PackedWorkload(*self._concatenated_supports())
                cache["packed"] = packed
            else:
                if recording:
                    _telemetry_registry().counter(
                        "workload.cache", bucket=_CACHE_NAME, event="hit"
                    ).add()
                self._point_supports_at(packed)
            self._packed = packed
            if recording:
                _telemetry_registry().gauge("sparse.packed_entries").set(
                    packed.total_entries
                )
        return self._packed

    def _cached(self, key, span_name: str, build, **attributes):
        """``build()`` once per workload, cached under ``key`` next to the packing."""
        recording = _telemetry_enabled()
        cache = self._context.workload.private_cache(_CACHE_NAME)
        value = cache.get(key)
        if recording:
            _telemetry_registry().counter(
                "workload.cache",
                bucket=_CACHE_NAME,
                event="miss" if value is None else "hit",
            ).add()
        if value is None:
            with _trace(span_name, **attributes) if recording else _NULL_SPAN:
                value = build()
            cache[key] = value
        return value

    def _ensure_matrix(self) -> sparse.csr_matrix:
        if self._matrix is None:
            packed = self._ensure_packed()
            self._matrix = self._cached(
                "matrix",
                "sparse.matrix_build",
                lambda: packed.matrix(self._context.domain_size),
            )
        return self._matrix

    def _ensure_columns(self) -> ColumnView:
        if self._columns is None:
            packed = self._ensure_packed()
            self._columns = self._cached(
                "columns",
                "sparse.columns_build",
                lambda: ColumnView(packed, self._context.domain_size),
                entries=packed.total_entries,
            )
        return self._columns

    def packed_workload(self) -> PackedWorkload:
        """The compiled packed CSR (building it on first use)."""
        return self._ensure_packed()

    # -- evaluation -------------------------------------------------------
    def answers_on_histogram(self, flat: np.ndarray) -> np.ndarray:
        return np.asarray(self._ensure_matrix() @ flat, dtype=np.float64)

    def session(self, initial: np.ndarray) -> HistogramSession:
        return IncrementalHistogramSession(
            self, np.array(initial, dtype=np.float64), self._ensure_columns()
        )

    def estimated_memory(self) -> int:
        return 16 * self._context.total_support_size()
