"""Per-layer timing taken from outside the program.

:class:`LayerTracer` wraps the public functions of each layer at the names
their callers look up (``repro.core.multi_table.residual_sensitivity``,
``repro.core.pmw.join_size``, the op methods of every ``HistogramSession``
subclass, ...) and restores the originals on exit.  The program's source is
never touched, and timed (untraced) runs never install it.

Every wrapped call records its inclusive wall time; a layer is charged only
its *self* time (inclusive minus the wrapped calls nested inside it), so the
layer times of a release add up to the inclusive time of its outermost
wrapped calls, and whatever the release spends outside them is reported as
unattributed.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from math import comb

from repro.mechanisms.ledger import PrivacyLedger, use_ledger
from repro.queries.backends import HistogramSession
from repro.queries.evaluation import WorkloadEvaluator
from repro.sensitivity.residual import certified_cutoff

#: ``(module, attribute, layer)`` for plain functions, at their callers' names.
FUNCTIONS = (
    ("repro.core.two_table", "local_sensitivity", "sensitivity.local"),
    ("repro.core.multi_table", "residual_sensitivity", "sensitivity.residual"),
    ("repro.core.pmw", "join_size", "relational.join_size"),
    ("repro.core.uniformize", "partition_hierarchical", "core.partition"),
    ("repro.core.uniformize", "partition_two_table", "core.partition"),
    ("repro.core.release", "private_multiplicative_weights", "core.pmw"),
    ("repro.core.two_table", "private_multiplicative_weights", "core.pmw"),
    ("repro.core.multi_table", "private_multiplicative_weights", "core.pmw"),
    ("repro.core.pmw", "exponential_mechanism", "mechanisms.draw"),
    ("repro.core.pmw", "sample_laplace", "mechanisms.draw"),
    ("repro.core.pmw", "sample_truncated_laplace", "mechanisms.draw"),
    ("repro.core.multi_table", "sample_truncated_laplace", "mechanisms.draw"),
    ("repro.core.two_table", "truncated_laplace_mechanism", "mechanisms.draw"),
    ("repro.core.hierarchical", "sample_truncated_laplace", "mechanisms.draw"),
    ("repro.core.partition_two_table", "sample_truncated_laplace", "mechanisms.draw"),
)

#: Callers of ``shared_evaluator``: counted for the evaluator-cache hit ratio.
CACHE_CALLERS = (
    "repro.core.release",
    "repro.core.two_table",
    "repro.core.multi_table",
    "repro.core.uniformize",
    "repro.core.pmw",
)

#: ``WorkloadEvaluator`` methods the release path calls, by layer.
EVALUATOR_METHODS = (
    ("answers_on_instance", "queries.answers_on_instance"),
    ("query_support", "queries.query_support"),
    ("histogram_session", "queries.session.open_close"),
)

#: ``HistogramSession`` ops by layer (``averaged_slices`` is a generator the
#: PMW loop drains while assembling the release, so it stays in ``core.pmw``).
SESSION_METHODS = (
    ("answers", "queries.session.answers"),
    ("scale_support", "queries.session.update"),
    ("scale", "queries.session.update"),
    ("total", "queries.session.update"),
    ("accumulate", "queries.session.update"),
    ("fill", "queries.session.update"),
    ("close", "queries.session.open_close"),
)

LAYERS = (
    "queries.session.answers",
    "queries.session.update",
    "queries.answers_on_instance",
    "queries.query_support",
    "queries.session.open_close",
    "sensitivity.residual",
    "sensitivity.local",
    "relational.join_size",
    "core.partition",
    "core.pmw",
    "mechanisms.draw",
)


def _session_classes() -> list[type]:
    importlib.import_module("repro.queries.sharded")
    importlib.import_module("repro.queries.vectorized")
    found, pending = [], [HistogramSession]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class LayerTracer:
    """Context manager that installs the layer wrappers and accumulates totals."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.top_level_seconds = 0.0
        self.cache_hits = 0
        self.cache_calls = 0
        self.pmw_rounds = 0
        self.partition_buckets = 0
        self.simplex_rows = 0
        # Traced release wall time, the part of it outside every wrapped
        # call, and each release's charged ε as a share of the declared ε.
        self.release_seconds = 0.0
        self.unattributed = 0.0
        self.charged_ratios: list[float] = []
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def traced_release(self, release, declared_epsilon: float):
        """Run one release under a fresh ledger; return it and its wall time."""
        ledger = PrivacyLedger()
        top_before = self.top_level_seconds
        with use_ledger(ledger):
            start = time.perf_counter()
            result = release()
            elapsed = time.perf_counter() - start
        self.release_seconds += elapsed
        self.unattributed += elapsed - (self.top_level_seconds - top_before)
        self.charged_ratios.append(ledger.total().epsilon / declared_epsilon)
        return result, elapsed

    # ------------------------------------------------------------------ #
    def _timed(self, layer: str, original, on_result=None):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            nested_same = bool(self._stack) and self._stack[-1][0] == layer
            frame = [layer, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.seconds[layer] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
                else:
                    self.top_level_seconds += elapsed
                if not nested_same:
                    self.calls[layer] += 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _on_pmw(self, args, kwargs, result) -> None:
        self.pmw_rounds += result.iterations

    def _on_partition(self, args, kwargs, result) -> None:
        self.partition_buckets += result.num_buckets

    def _on_residual(self, args, kwargs, result) -> None:
        instance = args[0]
        beta = args[1] if len(args) > 1 else kwargs["beta"]
        parts = instance.query.num_relations - 1
        cutoff = certified_cutoff(parts + 1, beta)
        self.simplex_rows = max(self.simplex_rows, comb(cutoff + parts, parts))

    def _counted_cache(self, original):
        @functools.wraps(original)
        def wrapper(workload, *args, **kwargs):
            cache = workload.private_cache("shared_evaluators")
            before = len(cache)
            result = original(workload, *args, **kwargs)
            self.cache_calls += 1
            self.cache_hits += len(cache) == before
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "LayerTracer":
        hooks = {
            "core.pmw": self._on_pmw,
            "core.partition": self._on_partition,
            "sensitivity.residual": self._on_residual,
        }
        try:
            for module_name, attribute, layer in FUNCTIONS:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
                self._patch(module, attribute, self._timed(layer, original, hooks.get(layer)))
            for module_name in CACHE_CALLERS:
                module = importlib.import_module(module_name)
                counted = self._counted_cache(module.shared_evaluator)
                self._patch(module, "shared_evaluator", counted)
            for attribute, layer in EVALUATOR_METHODS:
                self._patch(
                    WorkloadEvaluator,
                    attribute,
                    self._timed(layer, WorkloadEvaluator.__dict__[attribute]),
                )
            for cls in _session_classes():
                for attribute, layer in SESSION_METHODS:
                    if attribute in cls.__dict__:
                        self._patch(cls, attribute, self._timed(layer, cls.__dict__[attribute]))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
