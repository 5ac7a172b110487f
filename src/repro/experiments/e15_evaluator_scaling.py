"""E15 — workload-evaluation engine scaling: dense vs sparse vs streaming.

The release algorithms funnel every per-round score computation through
:class:`~repro.queries.evaluation.WorkloadEvaluator`; the dense backend
materialises a ``|Q| × |D|`` float64 matrix, which is quadratic memory for
workloads that are overwhelmingly sparse (marginal/threshold queries touch a
vanishing fraction of the joint domain).  This experiment builds a
large-domain two-table marginal workload whose dense matrix exceeds the
evaluator's 60M-cell budget, evaluates it with all three backends, and
records per-mode build time, per-evaluation time, peak traced memory, and
the maximum answer deviation from the dense reference.

The benchmark (``benchmarks/bench_e15_evaluator_scaling.py``) asserts the
sparse path needs ≥ 3× less peak memory than the dense path while matching
its answers to 1e-9 (relative to the answer magnitude).
"""

from __future__ import annotations

import gc
import time
import tracemalloc

import numpy as np

from repro.analysis.reporting import ExperimentTable
from repro.queries.evaluation import (
    _MATRIX_CELL_BUDGET,
    WorkloadEvaluator,
    auto_evaluator_mode,
)
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query

_MODES = ("dense", "sparse", "streaming")


def _marginal_workload(query) -> Workload:
    """One marginal per value of every attribute, plus the counting query."""
    workload = Workload.attribute_marginals(query, query.attribute_names[0])
    for attribute_name in query.attribute_names[1:]:
        workload = workload.extended(
            Workload.attribute_marginals(
                query, attribute_name, include_counting=False
            ).queries
        )
    return workload


def _measure_mode(
    workload: Workload,
    mode: str,
    histogram: np.ndarray,
    chunk_size: int,
    eval_repeats: int,
) -> dict:
    """Build an evaluator in one mode and profile build/eval time and memory."""
    gc.collect()
    # Under an enclosing trace (a benchmark runner recording the whole run)
    # only the peak is reset, measured from the bytes already traced, and the
    # trace is left running; stopping it would zero the runner's record.
    # The enclosing trace's peak so far is kept before the reset, so the
    # run's overall peak (``traced_peak_mib``) survives it.
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
        earlier_peak = 0
    else:
        earlier_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
    baseline_bytes = tracemalloc.get_traced_memory()[0]
    start = time.perf_counter()
    evaluator = WorkloadEvaluator(workload, mode=mode, chunk_size=chunk_size)
    answers = evaluator.answers_on_histogram(histogram)
    build_seconds = time.perf_counter() - start
    traced_peak = tracemalloc.get_traced_memory()[1]
    peak_bytes = traced_peak - baseline_bytes
    if started_here:
        tracemalloc.stop()

    start = time.perf_counter()
    for _ in range(eval_repeats):
        answers = evaluator.answers_on_histogram(histogram)
    eval_seconds = (time.perf_counter() - start) / max(eval_repeats, 1)
    row = {
        "mode": mode,
        "build_seconds": build_seconds,
        "eval_seconds": eval_seconds,
        "peak_mib": peak_bytes / 2**20,
        "traced_peak_mib": max(earlier_peak, traced_peak) / 2**20,
        "answers": answers,
    }
    del evaluator
    gc.collect()
    return row


def run(
    *,
    size_a: int = 128,
    size_b: int = 64,
    size_c: int = 128,
    chunk_size: int = 1 << 18,
    eval_repeats: int = 3,
    histogram_total: float = 4000.0,
    seed: int = 0,
) -> dict:
    """Profile all three evaluator modes on one large-domain marginal workload."""
    rng = np.random.default_rng(seed)
    query = two_table_query(size_a, size_b, size_c)
    workload = _marginal_workload(query)
    domain_size = query.joint_domain_size
    dense_cells = len(workload) * domain_size

    histogram = rng.random(query.shape)
    histogram *= histogram_total / histogram.sum()

    auto_mode = auto_evaluator_mode(workload)
    rows = [
        _measure_mode(workload, mode, histogram, chunk_size, eval_repeats)
        for mode in _MODES
    ]
    dense_row = rows[0]
    reference = dense_row["answers"]
    scale = max(1.0, float(np.abs(reference).max()))
    for row in rows:
        row["max_abs_diff"] = float(np.max(np.abs(row["answers"] - reference)))
        row["answers_match"] = bool(row["max_abs_diff"] <= 1e-9 * scale)

    table = ExperimentTable(
        title=(
            "E15: evaluator scaling — "
            f"|Q|={len(workload)}, |D|={domain_size}, "
            f"dense cells={dense_cells} (budget {_MATRIX_CELL_BUDGET}), "
            f"auto mode={auto_mode!r}"
        ),
        columns=["mode", "build (s)", "eval (s)", "peak (MiB)", "max |diff| vs dense"],
    )
    for row in rows:
        table.add_row(
            [
                row["mode"],
                round(row["build_seconds"], 3),
                round(row["eval_seconds"], 4),
                round(row["peak_mib"], 1),
                row["max_abs_diff"],
            ]
        )

    peak_by_mode = {row["mode"]: row["peak_mib"] for row in rows}
    return {
        "table": table,
        "rows": [
            {key: value for key, value in row.items() if key != "answers"}
            for row in rows
        ],
        "num_queries": len(workload),
        "domain_size": domain_size,
        "dense_cells": dense_cells,
        "cell_budget": _MATRIX_CELL_BUDGET,
        "auto_mode": auto_mode,
        "answer_scale": scale,
        "traced_peak_mib": max(row["traced_peak_mib"] for row in rows),
        "memory_ratio_sparse": peak_by_mode["dense"] / max(peak_by_mode["sparse"], 1e-9),
        "memory_ratio_streaming": peak_by_mode["dense"]
        / max(peak_by_mode["streaming"], 1e-9),
    }
