"""One workload, one process: set-up, a closed loop of warm releases, metrics.

A run first times the cold set-up several times (query family and instance
construction plus the first release, which pays the evaluator compile) and
keeps the last set-up warm.  It then releases one request at a time until
the time budget is spent, cycling through the seed-derived release seeds,
and checks every release (:mod:`perfbench.checks`).  Only the
``release_synthetic_data`` call itself is timed.

With ``trace=False`` the program runs exactly as a user gets it: telemetry
off, no ambient ledger, no wrappers.  With ``trace=True`` the first half of
the budget repeats that untraced loop (for ``trace.overhead``) and the second
half runs under :class:`perfbench.layers.LayerTracer` with a fresh
``PrivacyLedger`` installed around each release.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

import repro.telemetry
from repro import Instance, Workload, WorkloadEvaluator, join_size, shared_evaluator
from repro.queries.backends import effective_cpu_count

from perfbench import checks
from perfbench.layers import LAYERS, LayerTracer
from perfbench.workloads import Inputs, make_inputs

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: Cold set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3


def blas_threads() -> int | None:
    """Thread count of the BLAS numpy links against, when it can be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return int(getter())
    return None


def host_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "effective_cpus": effective_cpu_count(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` of the tail percentile.

    The tail is the highest percentile with :data:`TAIL_BEYOND` samples
    beyond it: the sample with exactly that many samples above it.  Runs
    with fewer than ``2 · TAIL_BEYOND`` samples have no such percentile at or
    above the median, so they report the median with the count beyond it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0, count // 2
    index = count - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / count, TAIL_BEYOND


def peak_rss_mib() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


@dataclass
class Warm:
    """The warm state the timed loop releases against."""

    inputs: Inputs
    instance: Instance
    workload: Workload
    evaluator: WorkloadEvaluator
    true_answers: np.ndarray
    true_size: float


@dataclass
class Tally:
    """Per-release outcomes of one run."""

    seconds: list[float] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, warm: Warm, result, elapsed: float, *, timed: bool = True) -> None:
        """Check one release and file it (its time too, when ``timed``)."""
        self.attempted += 1
        kwargs = warm.inputs.release_kwargs
        try:
            answers, problems = checks.check_release(
                result,
                workload=warm.workload,
                evaluator=warm.evaluator,
                epsilon=kwargs["epsilon"],
                delta=kwargs["delta"],
            )
        except Exception as error:  # a check that cannot run is a failed release
            answers, problems = None, [f"check raised {error!r}"]
        if problems:
            self.fail(problems)
        elif timed:
            self.seconds.append(elapsed)
            self.errors.append(
                float(np.max(np.abs(answers - warm.true_answers))) / warm.true_size
            )

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.extend(problems)


def set_up(inputs: Inputs, repeats: int, tally: Tally) -> tuple[list[float], Warm]:
    """Time ``repeats`` cold set-ups; keep the last one warm."""
    times, warm = [], None
    for _ in range(repeats):
        warm = None
        gc.collect()
        start = time.perf_counter()
        instance, workload = inputs.build()
        result = inputs.release(instance, workload, inputs.release_seeds[0])
        times.append(time.perf_counter() - start)
        evaluator = shared_evaluator(workload, backend="auto", workers=1)
        true_answers, problems = checks.check_instance_answers(evaluator, workload, instance)
        size = float(join_size(instance))
        warm = Warm(inputs, instance, workload, evaluator, true_answers, size)
        if problems:
            tally.attempted += 1
            tally.fail(problems)
        else:
            tally.record(warm, result, times[-1], timed=False)
    return times, warm


def release_loop(warm: Warm, seconds: float, tally: Tally, *, first: int, tracer=None) -> int:
    """Release one request at a time until ``seconds`` have passed.

    Returns the index of the next unused release seed.
    """
    seeds = warm.inputs.release_seeds
    index = first
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or index == first:
        seed = seeds[index % len(seeds)]
        index += 1

        def release():
            return warm.inputs.release(warm.instance, warm.workload, seed)

        try:
            if tracer is None:
                start = time.perf_counter()
                result = release()
                elapsed = time.perf_counter() - start
            else:
                result, elapsed = tracer.traced_release(
                    release, warm.inputs.release_kwargs["epsilon"]
                )
        except Exception as error:  # a release that raises is a failed release
            tally.attempted += 1
            tally.fail([f"release(seed={seed}) raised {error!r}"])
            continue
        tally.record(warm, result, elapsed)
    return index


def compile_seconds(inputs: Inputs) -> float:
    """Compile a fresh evaluator: first evaluation plus every query support.

    The query family is rebuilt first, because compiled supports are cached
    on the workload object and a second evaluator would reuse them.
    """
    workload = inputs.make_workload(inputs.query)
    gc.collect()
    start = time.perf_counter()
    evaluator = WorkloadEvaluator(workload, backend="auto", workers=1)
    evaluator.answers_on_histogram(np.ones(workload.join_query.shape))
    for index in range(len(workload)):
        evaluator.query_support(index)
    elapsed = time.perf_counter() - start
    evaluator.close()
    return elapsed


def kernel_bytes_per_eval(evaluator: WorkloadEvaluator) -> int:
    """Bytes one evaluation streams, computed from backend, nnz and |D|.

    A dense backend reads the ``|Q| × |D|`` matrix; the sparse family reads
    every stored support entry (an 8-byte value and an 8-byte index) plus
    the row pointers; all of them read the ``|D|``-cell histogram.
    """
    cells = evaluator.domain_size
    queries = evaluator.num_queries
    if evaluator.mode == "dense":
        return 8 * queries * cells + 8 * cells
    return 16 * evaluator.total_support_size() + 8 * (queries + 1) + 8 * cells


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    detail: dict


def run(name: str, seed: int, seconds: float, *, trace: bool, tiny: bool = False) -> RunResult:
    """Run workload ``name`` under ``seed`` for ``seconds`` and collect its metrics."""
    repro.telemetry.disable()
    inputs = make_inputs(name, seed, tiny=tiny)
    tally = Tally()
    setup_times, warm = set_up(inputs, 1 if trace else SETUPS, tally)
    detail = {
        "workload": name,
        "seed": seed,
        "backend": warm.evaluator.mode,
        "queries": len(warm.workload),
        "domain": int(warm.evaluator.domain_size),
        "host": host_record(),
    }
    if trace:
        metrics, extra = _traced(warm, seconds, tally)
        detail.update(extra)
    else:
        release_loop(warm, seconds, tally, first=1)
        metrics = _end_to_end(tally, setup_times)
        _, percentile, beyond = tail(tally.seconds or [0.0])
        detail.update(
            samples=len(tally.seconds),
            setup_samples=len(setup_times),
            tail_percentile=percentile,
            tail_samples_beyond=beyond,
            failed_share=tally.failed / tally.attempted,
            linf_error_rel=statistics.median(tally.errors) if tally.errors else None,
        )
    detail["problems"] = tally.problems
    return RunResult(tally.failed == 0, tally.attempted, tally.failed, metrics, detail)


def _end_to_end(tally: Tally, setup_times: list[float]) -> dict:
    """End-to-end metrics; ``releases_per_s`` divides by timed release time only."""
    if not tally.seconds:
        return {}
    tail_value, _, _ = tail(tally.seconds)
    return {
        "release_s.p50": (statistics.median(tally.seconds), "s"),
        "release_s.tail": (tail_value, "s"),
        "releases_per_s": (len(tally.seconds) / sum(tally.seconds), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def _traced(warm: Warm, seconds: float, tally: Tally) -> tuple[dict, dict]:
    compile_s = compile_seconds(warm.inputs)
    untraced = Tally()
    next_seed = release_loop(warm, seconds / 2.0, untraced, first=1)
    traced = Tally()
    tracer = LayerTracer()
    with tracer:
        release_loop(warm, seconds / 2.0, traced, first=next_seed, tracer=tracer)
    for part in (untraced, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.problems.extend(part.problems)
    releases = max(len(tracer.charged_ratios), 1)
    wall = max(tracer.release_seconds, 1e-12)
    metrics: dict[str, tuple[float, str]] = {
        "queries.compile_s": (compile_s, "s"),
        "trace.release_s.mean": (tracer.release_seconds / releases, "s"),
    }
    layer_seconds = {}
    for layer in LAYERS:
        short = "core.pmw.self" if layer == "core.pmw" else layer
        # Shares of traced release wall time add up to one together with
        # trace.unattributed_share; times trace.release_s.mean they give the
        # layer's seconds per release, which the detail record also lists.
        metrics[f"{short}_share"] = (tracer.seconds[layer] / wall, "ratio")
        layer_seconds[f"{short}_s"] = tracer.seconds[layer] / releases
        calls_name = "core.pmw.calls" if layer == "core.pmw" else f"{layer}_calls"
        if layer != "queries.session.open_close":
            metrics[calls_name] = (tracer.calls[layer] / releases, "count")
    metrics.update(
        {
            "queries.kernel.nnz": (warm.evaluator.total_support_size(), "count"),
            "queries.kernel.bytes_per_eval": (kernel_bytes_per_eval(warm.evaluator), "B"),
            "queries.evaluator_cache.hit_ratio": (
                tracer.cache_hits / max(tracer.cache_calls, 1),
                "ratio",
            ),
            "queries.evaluator_cache.calls": (tracer.cache_calls / releases, "count"),
            "sensitivity.residual.simplex_rows": (tracer.simplex_rows, "count"),
            "core.partition.buckets": (tracer.partition_buckets / releases, "count"),
            "core.pmw.rounds": (tracer.pmw_rounds / releases, "count"),
            "mechanisms.ledger.epsilon_charged_ratio": (
                statistics.median(tracer.charged_ratios) if tracer.charged_ratios else 0.0,
                "ratio",
            ),
            "trace.unattributed_share": (tracer.unattributed / wall, "ratio"),
            "trace.overhead": (
                statistics.median(traced.seconds) / statistics.median(untraced.seconds) - 1.0
                if traced.seconds and untraced.seconds
                else 0.0,
                "ratio",
            ),
        }
    )
    extra = {
        "layer_seconds_per_release": layer_seconds,
        "untraced_samples": len(untraced.seconds),
        "traced_samples": len(traced.seconds),
        "bytes_per_eval": "computed from backend, nnz and |D|, not measured",
    }
    return metrics, extra
