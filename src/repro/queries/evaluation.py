"""Exact workload evaluation and error reporting.

:class:`WorkloadEvaluator` answers a whole workload against instances and
joint-domain histograms.  It is a thin facade over four
:class:`~repro.queries.backends.EvaluationBackend` classes, named in
:data:`BACKENDS`; they trade memory for speed behind one interface, so the
release algorithms never care which one is active:

``dense``
    Pre-computes the full ``|Q| × |D|`` float64 query matrix so every
    workload evaluation is a single matrix–vector product.  Fastest per
    evaluation, but the matrix costs ``8·|Q|·|D|`` bytes.
``sparse``
    Stores one CSR-style ``(indices, values)`` support per query — only the
    joint-domain cells where the query value is non-zero — packed into one
    ``scipy.sparse.csr_matrix``, so an evaluation is one matvec.  Memory is
    ``O(Σ_q nnz(q))`` instead of ``O(|Q|·|D|)``; threshold/marginal
    workloads are overwhelmingly sparse, so this is usually a large
    reduction.  Its PMW session keeps the answers current per support
    delta (1e-9 relative to a fresh evaluation), see
    :mod:`repro.queries.vectorized`.
``streaming``
    Holds no per-query state at all: evaluations scan the joint domain in
    fixed-size chunks and recompute query values on the fly.  Slowest, but
    the extra memory is bounded by the chunk size regardless of ``|Q|`` or
    ``|D|``.
``domain``
    The joint domain itself partitioned into contiguous slices, one per
    pool worker, each backed by its own shared-memory segment of
    ``8·(slice length)`` bytes — the full histogram never exists as one
    allocation.  Supports are re-indexed per slice; answers sum the
    per-slice partials in fixed order (1e-9 parity with serial sparse, not
    bitwise — PMW *selections* stay bitwise under a fixed seed).  Opt-in
    via ``mode="domain"``, sized by ``workers``; this is the strategy for
    histograms one address space cannot hold.

Iterated evaluation drives a :class:`~repro.queries.backends.HistogramSession`
— an operation protocol (``answers``, ``scale_support``, ``scale``,
``fill``, ``total``, ``accumulate``/``averaged_slices``, ``close``) behind
which the histogram storage is private to the backend.  Sessions are opened
via :meth:`WorkloadEvaluator.histogram_session`, either from a concrete
array or from a declarative :class:`~repro.queries.backends.HistogramSeed`
(uniform total), which partitioned backends realise slice-locally so the
parent never allocates ``|D|`` cells.

The default (``mode="auto"``) applies one rule
(:func:`~repro.queries.backends.choose_backend`): ``dense`` while
``|Q|·|D|`` fits the matrix budget, else ``sparse`` while the *measured*
total support fits the sparse budget (an einsum over the non-zero
indicators of the per-relation weights, never materialising the joint
domain), else ``streaming``.  The worker count does not steer it.  The
choice (and any dense matrix build) is deferred until the first histogram
evaluation or support request, so instance-only consumers pay nothing for
it.

:func:`shared_evaluator` memoises evaluators on the workload object itself
(one per ``(backend, workers)``), so repeated release invocations over the
same workload — the uniformized algorithms, the baselines, parameter
sweeps — reuse the cached supports, and the cache dies with the workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.queries.backends import (
    _DEFAULT_CHUNK_SIZE,
    _MATRIX_CELL_BUDGET,
    _SPARSE_CELL_BUDGET,
    DenseBackend,
    EvaluationBackend,
    EvaluatorConfig,
    EvaluatorContext,
    HistogramSeed,
    HistogramSession,
    StreamingBackend,
    choose_backend,
)
from repro.queries.sharded import DomainShardedBackend
from repro.queries.vectorized import SparseBackend
from repro.queries.workload import Workload
from repro.relational.instance import Instance
from repro.telemetry import (
    is_enabled as _telemetry_enabled,
    registry as _telemetry_registry,
)

#: Every evaluation backend by mode name.
BACKENDS: dict[str, type[EvaluationBackend]] = {
    cls.name: cls
    for cls in (
        DenseBackend,
        SparseBackend,
        DomainShardedBackend,
        StreamingBackend,
    )
}


def backend_class(name: str) -> type[EvaluationBackend]:
    """The backend class of a mode name; unknown names raise ``ValueError``."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown evaluator backend {name!r}; expected one of "
            f"{('auto',) + tuple(BACKENDS)}"
        ) from None


@dataclass(frozen=True)
class ErrorReport:
    """Per-workload error summary between true and released answers."""

    max_abs_error: float
    mean_abs_error: float
    root_mean_squared_error: float
    worst_query: str
    num_queries: int

    @classmethod
    def from_answers(
        cls, true_answers: np.ndarray, released_answers: np.ndarray, names: tuple[str, ...]
    ) -> "ErrorReport":
        true_answers = np.asarray(true_answers, dtype=float)
        released_answers = np.asarray(released_answers, dtype=float)
        if true_answers.shape != released_answers.shape:
            raise ValueError("answer vectors must have the same shape")
        if names and len(names) != true_answers.size:
            raise ValueError(
                f"got {len(names)} query names for {true_answers.size} answers; "
                "names must be empty or match the answer vector length"
            )
        errors = np.abs(true_answers - released_answers)
        worst_index = int(np.argmax(errors)) if errors.size else 0
        return cls(
            max_abs_error=float(errors.max()) if errors.size else 0.0,
            mean_abs_error=float(errors.mean()) if errors.size else 0.0,
            root_mean_squared_error=float(np.sqrt(np.mean(errors**2))) if errors.size else 0.0,
            worst_query=names[worst_index] if names else "",
            num_queries=int(errors.size),
        )

    def __str__(self) -> str:
        return (
            f"ErrorReport(max={self.max_abs_error:.3f}, mean={self.mean_abs_error:.3f}, "
            f"rmse={self.root_mean_squared_error:.3f}, worst={self.worst_query!r}, "
            f"|Q|={self.num_queries})"
        )


# ---------------------------------------------------------------------- #
# process-wide default backend (set by the CLI flags)
# ---------------------------------------------------------------------- #
_DEFAULT_BACKEND: tuple[str, int] = ("auto", 1)


def set_default_backend(backend: str = "auto", workers: int = 1) -> None:
    """Set the process-wide default evaluation backend and worker count.

    Applied wherever no explicit ``mode``/``backend`` is given — fresh
    ``WorkloadEvaluator(workload)`` constructions and
    :func:`shared_evaluator` lookups — so one call (e.g. from the CLI's
    ``--evaluator-backend``/``--workers`` flags) retargets every release
    algorithm in the process.  ``workers`` sizes the ``domain`` pool only;
    it never changes which backend ``"auto"`` picks.
    """
    if backend != "auto":
        backend_class(backend)  # raises on unknown names
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    global _DEFAULT_BACKEND
    _DEFAULT_BACKEND = (backend, int(workers))


def get_default_backend() -> tuple[str, int]:
    """The process-wide ``(backend, workers)`` default."""
    return _DEFAULT_BACKEND


class WorkloadEvaluator:
    """Evaluate a workload against instances and joint-domain histograms.

    Parameters
    ----------
    workload:
        The query family.
    mode / backend:
        ``"auto"`` or a backend name (``"dense"``, ``"sparse"``,
        ``"domain"``, ``"streaming"``); see the module docstring for the
        trade-offs.
        ``backend`` is an alias of ``mode`` matching the release-algorithm
        knob; when neither is given the process-wide default applies.
        ``"auto"`` (the default) applies the automatic-choice rule.
    cell_budget / sparse_cell_budget:
        Override the dense-matrix and total-support budgets used by the
        automatic choice.
    chunk_size:
        Joint-domain chunk length used by streaming scans and chunked
        support construction.
    workers:
        Worker-process count of the ``domain`` backend, which sizes its
        pool and per-slice segments by it (floored at two).  No other
        backend reads it, and the automatic choice ignores it.
    """

    def __init__(
        self,
        workload: Workload,
        *,
        mode: str | None = None,
        backend: str | None = None,
        cell_budget: int = _MATRIX_CELL_BUDGET,
        sparse_cell_budget: int = _SPARSE_CELL_BUDGET,
        chunk_size: int = _DEFAULT_CHUNK_SIZE,
        workers: int | None = None,
    ):
        name = backend if backend is not None else mode
        if name is None:
            name, default_workers = get_default_backend()
            if workers is None:
                workers = default_workers
        if workers is None:
            workers = 1
        if name != "auto":
            # Raises on unknown names; the backend class's own invariant
            # (e.g. domain's >= 2 floor) decides the effective worker
            # count, so this facade, shared_evaluator, and direct backend
            # construction all agree.
            workers = backend_class(name).normalize_workers(workers)
        self._workload = workload
        self._requested = name
        self._context = EvaluatorContext(
            workload,
            EvaluatorConfig(
                cell_budget=int(cell_budget),
                sparse_cell_budget=int(sparse_cell_budget),
                chunk_size=int(chunk_size),
                workers=int(workers),
            ),
        )
        self._backend: EvaluationBackend | None = None
        # "auto" is resolved lazily on first histogram/support use:
        # instance-only consumers (answers_on_instance) never pay for the
        # support measurement or the dense matrix build.
        if name != "auto":
            self._backend = backend_class(name)(self._context)

    # ------------------------------------------------------------------ #
    # backend resolution
    # ------------------------------------------------------------------ #
    def _resolve_backend(self) -> EvaluationBackend:
        if self._backend is None:
            self._backend = backend_class(choose_backend(self._context))(self._context)
        return self._backend

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def workload(self) -> Workload:
        return self._workload

    @property
    def num_queries(self) -> int:
        return len(self._workload)

    @property
    def domain_size(self) -> int:
        return self._context.domain_size

    @property
    def workers(self) -> int:
        return self._context.config.workers

    @property
    def mode(self) -> str:
        """The active backend name (resolving the automatic choice)."""
        return self._resolve_backend().name

    @property
    def backend(self) -> EvaluationBackend:
        """The active backend instance (resolving the automatic choice)."""
        return self._resolve_backend()

    @property
    def has_matrix(self) -> bool:
        return isinstance(self._backend, DenseBackend)

    def support_size(self, index: int) -> int:
        """Exact number of joint-domain cells where query ``index`` is non-zero.

        Computed by an einsum over the non-zero indicators of the per-relation
        weight arrays — the joint domain is never materialised, so this is
        cheap even when ``|D|`` is enormous.
        """
        return self._context.support_size(index)

    def total_support_size(self) -> int:
        """``Σ_q nnz(q)``: the number of entries the sparse form stores."""
        return self._context.total_support_size()

    def estimated_memory(self) -> int:
        """Resident bytes of the active backend (resolving the auto choice)."""
        return self._resolve_backend().estimated_memory()

    # ------------------------------------------------------------------ #
    # query supports
    # ------------------------------------------------------------------ #
    def query_support(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style ``(flat indices, values)`` support of one query.

        Built lazily and cached by the backend; the PMW multiplicative
        update touches only these cells (the update factor is exactly 1
        everywhere else).
        """
        return self._resolve_backend().query_support(index)

    def query_values(self, index: int) -> np.ndarray:
        """Flattened joint-domain value vector of one query (dense)."""
        if isinstance(self._backend, DenseBackend):
            return self._backend.query_values(index)
        return self._context.query_values(index)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def answers_on_instance(self, instance: Instance) -> np.ndarray:
        """Exact answers ``q(I)`` for every workload query.

        Each is a :func:`~repro.relational.join.contract` of the per-relation
        arrays (:meth:`ProductQuery.evaluate`) — identical across all
        evaluator backends.
        """
        return np.array([query.evaluate(instance) for query in self._workload], dtype=float)

    def _validated_flat(self, histogram: np.ndarray) -> np.ndarray:
        return self._context.validated_flat(histogram)

    def answers_on_histogram(self, histogram: np.ndarray) -> np.ndarray:
        """Answers ``q(F)`` for every query against a joint-domain histogram.

        Telemetry: while recording, each evaluation is timed into the
        ``evaluator.eval_seconds{backend=<name>}`` distribution.
        """
        backend = self._resolve_backend()
        flat = self._validated_flat(histogram)
        if not _telemetry_enabled():
            return backend.answers_on_histogram(flat)
        with _telemetry_registry().timer("evaluator.eval_seconds", backend=backend.name):
            return backend.answers_on_histogram(flat)

    def histogram_session(
        self,
        initial: np.ndarray | None = None,
        *,
        seed: HistogramSeed | None = None,
    ) -> HistogramSession:
        """Open a mutable histogram session from an array or a seed spec.

        The PMW inner loop uses this instead of re-submitting the histogram
        every round: it applies in-place deltas (the selected query's
        support rescale and the renormalisation) through the session's op
        protocol and re-asks for answers.  The domain backend maps the
        session straight onto its per-slice shared-memory segments, so
        nothing is re-broadcast to the workers between rounds.

        Exactly one of ``initial`` (a concrete histogram, copied into
        session storage) or ``seed`` (a declarative
        :class:`~repro.queries.backends.HistogramSeed`) must be given.
        Passing ``seed=HistogramSeed.uniform(total)`` lets partitioned
        backends seed each slice locally — the caller never allocates
        ``|D|`` cells.
        """
        if (initial is None) == (seed is None):
            raise ValueError("pass exactly one of `initial` or `seed`")
        if initial is not None:
            seed = HistogramSeed.from_array(self._validated_flat(initial))
        return self._resolve_backend().seeded_session(seed)

    def error_report(self, instance: Instance, histogram: np.ndarray) -> ErrorReport:
        true_answers = self.answers_on_instance(instance)
        released = self.answers_on_histogram(histogram)
        return ErrorReport.from_answers(true_answers, released, self._workload.names())

    def close(self) -> None:
        """Release backend resources (worker pools, shared memory, ...)."""
        if self._backend is not None:
            self._backend.close()


def auto_evaluator_mode(
    workload: Workload,
    *,
    cell_budget: int = _MATRIX_CELL_BUDGET,
    sparse_cell_budget: int = _SPARSE_CELL_BUDGET,
) -> str:
    """The backend ``mode="auto"`` would pick, without building any backend.

    Applies :func:`~repro.queries.backends.choose_backend` — no dense
    matrix, no supports; useful for planning and reporting.
    """
    context = EvaluatorContext(
        workload,
        EvaluatorConfig(
            cell_budget=cell_budget,
            sparse_cell_budget=sparse_cell_budget,
        ),
    )
    return choose_backend(context)


# ---------------------------------------------------------------------- #
# shared evaluator cache
# ---------------------------------------------------------------------- #
def shared_evaluator(
    workload: Workload,
    *,
    backend: str | None = None,
    workers: int | None = None,
) -> WorkloadEvaluator:
    """One cached evaluator per workload and ``(backend, workers)``.

    The release algorithms and baselines call this instead of constructing a
    fresh :class:`WorkloadEvaluator` per invocation, so repeated releases
    over the same workload — uniformized per-bucket runs, trial sweeps, the
    baselines — share the dense matrix, packed CSR supports, or
    ``domain`` worker pool.  The cache lives on the
    workload object itself (:meth:`~repro.queries.workload.Workload.private_cache`),
    so entries are evicted exactly when the workload is garbage-collected —
    the cache/evaluator/workload reference cycle is collectable, unlike a
    module-level weak-key mapping whose values keep their keys alive.
    """
    default_backend, default_workers = get_default_backend()
    name = backend if backend is not None else default_backend
    if workers is None:
        # An unset worker count follows the process default only when the
        # backend does too; an explicit backend starts from serial.
        workers = default_workers if backend is None else 1
    if name != "auto":
        # Canonicalise through the backend's worker invariant (domain's
        # >= 2 floor) so equivalent requests share one cache entry.
        workers = backend_class(name).normalize_workers(workers)
    key = (name, int(workers))
    cache = workload.private_cache("shared_evaluators")
    evaluator = cache.get(key)
    _telemetry_registry().counter(
        "workload.cache",
        bucket="shared_evaluators",
        event="hit" if evaluator is not None else "miss",
    ).add()
    if evaluator is None:
        evaluator = WorkloadEvaluator(workload, mode=name, workers=workers)
        cache[key] = evaluator
    return evaluator


def max_error(workload: Workload, instance: Instance, histogram: np.ndarray) -> float:
    """The ℓ∞ error ``max_q |q(I) − q(F)|`` of a released histogram."""
    evaluator = shared_evaluator(workload)
    true_answers = evaluator.answers_on_instance(instance)
    released = evaluator.answers_on_histogram(histogram)
    return float(np.max(np.abs(true_answers - released))) if len(workload) else 0.0
