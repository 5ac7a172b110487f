"""E18 — domain-partitioned histograms vs the serial sparse path.

The ``domain`` backend partitions the flat joint domain into contiguous
slices, one per pool worker, each backed by its own shared-memory segment
(see :mod:`repro.queries.sharded`) — the full ``8·|D|`` histogram never
exists as one allocation, which is the property that scales PMW past
domains a single address space cannot hold.  This experiment builds the
E15-scale two-table marginal workload (≥ 336M dense cells at the default
sizes), drives both backends through the session op protocol, and records

* per-round wall time of the PMW hot path (``session.answers()`` with the
  histogram resident in the backend) for both, and the resulting speedup,
* the per-slice segment sizes: the largest must be at most the full
  histogram's bytes divided by the shard count, plus a small constant
  (the partitioning claim the benchmark asserts),
* the maximum answer deviation vs serial sparse (cross-slice partial sums
  reassociate float additions, so 1e-9 relative — not bitwise),
* whether two PMW runs — one per backend, same seed, uniform
  ``HistogramSeed`` — select bitwise-identical query sequences, and how
  far their released histograms drift (≤ 1e-9 relative),
* a ``SyntheticDataset.from_flat_slices`` / ``iter_flat_slices``
  round-trip over the released histogram, exercising the slice-based
  assembly path end to end.

The benchmark (``benchmarks/bench_e18_domain_partitioned.py``) asserts the
partitioning bound, the answer parity, and the bitwise PMW selections
unconditionally, and the wall-clock speedup only on hosts with ≥ 4 cores.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.reporting import ExperimentTable
from repro.core.pmw import PMWConfig, private_multiplicative_weights
from repro.core.synthetic import SyntheticDataset
from repro.experiments.e15_evaluator_scaling import _marginal_workload
from repro.mechanisms.spec import PrivacySpec
from repro.queries.backends import HistogramSeed
from repro.queries.backends import effective_cpu_count as effective_cores
from repro.queries.evaluation import WorkloadEvaluator
from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance


def _random_instance(query, tuples_per_relation: int, rng: np.random.Generator) -> Instance:
    size_a = query.attribute("A").domain.size
    size_b = query.attribute("B").domain.size
    size_c = query.attribute("C").domain.size
    tuples_r1 = [
        (int(rng.integers(size_a)), int(rng.integers(size_b)))
        for _ in range(tuples_per_relation)
    ]
    tuples_r2 = [
        (int(rng.integers(size_b)), int(rng.integers(size_c)))
        for _ in range(tuples_per_relation)
    ]
    return Instance.from_tuple_lists(query, {"R1": tuples_r1, "R2": tuples_r2})


def _time_session_answers(
    evaluator: WorkloadEvaluator, seed: HistogramSeed, repeats: int
) -> tuple[np.ndarray, float]:
    """Open a session from ``seed``, warm it, then time repeated answers.

    This is the PMW hot path: the histogram stays resident in the backend
    (private array, or per-slice shared-memory segments) and every round
    only re-asks for answers — nothing is re-shipped.
    """
    session = evaluator.histogram_session(seed=seed)
    try:
        answers = session.answers()  # build supports / start pool
        start = time.perf_counter()
        for _ in range(repeats):
            answers = session.answers()
        seconds = (time.perf_counter() - start) / max(repeats, 1)
    finally:
        session.close()
    return answers, seconds


def run(
    *,
    size_a: int = 128,
    size_b: int = 64,
    size_c: int = 128,
    workers: int | None = None,
    eval_repeats: int = 5,
    pmw_rounds: int = 6,
    tuples_per_relation: int = 2000,
    chunk_size: int = 1 << 18,
    histogram_total: float = 4000.0,
    epsilon: float = 1.0,
    delta: float = 1e-5,
    seed: int = 0,
) -> dict:
    """Profile serial-sparse vs domain-partitioned evaluation and PMW parity."""
    rng = np.random.default_rng(seed)
    query = two_table_query(size_a, size_b, size_c)
    workload = _marginal_workload(query)
    domain_size = query.joint_domain_size
    cores = effective_cores()
    if workers is None:
        workers = max(2, min(4, cores))

    histogram = rng.random(query.shape)
    histogram *= histogram_total / histogram.sum()
    histogram_seed = HistogramSeed.from_array(histogram)

    serial = WorkloadEvaluator(workload, mode="sparse", chunk_size=chunk_size)
    domain = WorkloadEvaluator(
        workload, mode="domain", workers=workers, chunk_size=chunk_size
    )
    try:
        reference, serial_seconds = _time_session_answers(
            serial, histogram_seed, eval_repeats
        )
        answers, domain_seconds = _time_session_answers(
            domain, histogram_seed, eval_repeats
        )

        scale = max(1.0, float(np.abs(reference).max()))
        max_abs_diff = float(np.max(np.abs(answers - reference)))
        answers_match = bool(max_abs_diff <= 1e-9 * scale)
        speedup = serial_seconds / max(domain_seconds, 1e-12)

        # The partitioning claim: every per-slice segment must be at most a
        # fair share of the full histogram bytes (+ the minimal-segment
        # constant), i.e. the parent-side |D| allocation really is gone.
        backend = domain.backend
        slice_bytes = backend.slice_segment_bytes()
        num_shards = len(slice_bytes)
        full_histogram_bytes = 8 * domain_size
        max_slice_bytes = max(slice_bytes)
        partition_bound_bytes = -(-full_histogram_bytes // max(num_shards, 1)) + 4096
        partition_bound_holds = bool(max_slice_bytes <= partition_bound_bytes)

        # PMW reproducibility: same seed, same instance, both backends seed
        # uniformly through the HistogramSeed spec.  Selections must be
        # bitwise identical; the released histograms agree to 1e-9 relative
        # (cross-slice sums reassociate float additions).
        instance = _random_instance(query, tuples_per_relation, rng)
        pmw_config = PMWConfig(num_iterations=pmw_rounds)
        pmw_serial = private_multiplicative_weights(
            instance, workload, epsilon, delta, 1.0,
            seed=seed, evaluator=serial, config=pmw_config,
        )
        pmw_domain = private_multiplicative_weights(
            instance, workload, epsilon, delta, 1.0,
            seed=seed, evaluator=domain, config=pmw_config,
        )
        selections_match = pmw_serial.selected_queries == pmw_domain.selected_queries
        histogram_scale = max(1.0, float(np.abs(pmw_serial.histogram).max()))
        pmw_histogram_diff = float(
            np.max(np.abs(pmw_serial.histogram - pmw_domain.histogram))
        )
        histograms_close = bool(pmw_histogram_diff <= 1e-9 * histogram_scale)

        # Slice-based assembly round-trip: the released histogram streamed
        # out range by range and re-assembled without drift.
        released = SyntheticDataset(
            join_query=query,
            histogram=pmw_domain.histogram,
            privacy=PrivacySpec(epsilon, delta),
        )
        rebuilt = SyntheticDataset.from_flat_slices(
            query,
            released.iter_flat_slices(max(chunk_size, 1)),
            PrivacySpec(epsilon, delta),
        )
        slice_roundtrip_ok = bool(
            np.array_equal(rebuilt.histogram, released.histogram)
        )

        rows = [
            {
                "backend": "sparse",
                "workers": 1,
                "eval_seconds": serial_seconds,
                "estimated_mib": serial.estimated_memory() / 2**20,
                "max_segment_mib": full_histogram_bytes / 2**20,
            },
            {
                "backend": "domain",
                "workers": workers,
                "eval_seconds": domain_seconds,
                "estimated_mib": domain.estimated_memory() / 2**20,
                "max_segment_mib": max_slice_bytes / 2**20,
            },
        ]
        table = ExperimentTable(
            title=(
                "E18: domain-partitioned histograms — "
                f"|Q|={len(workload)}, |D|={domain_size}, "
                f"dense cells={len(workload) * domain_size}, "
                f"representation={backend.representation!r}, shards={num_shards}, "
                f"cores={cores}, speedup={speedup:.2f}x, "
                f"PMW selections {'match' if selections_match else 'DIVERGE'}"
            ),
            columns=[
                "backend",
                "workers",
                "eval (s)",
                "est. resident (MiB)",
                "max histogram segment (MiB)",
            ],
        )
        for row in rows:
            table.add_row(
                [
                    row["backend"],
                    row["workers"],
                    round(row["eval_seconds"], 4),
                    round(row["estimated_mib"], 1),
                    round(row["max_segment_mib"], 3),
                ]
            )

        return {
            "table": table,
            "rows": rows,
            "backend": "domain",
            "representation": backend.representation,
            "num_queries": len(workload),
            "domain_size": domain_size,
            "dense_cells": len(workload) * domain_size,
            "workers": workers,
            "num_shards": num_shards,
            "effective_cores": cores,
            "serial_eval_seconds": serial_seconds,
            "domain_eval_seconds": domain_seconds,
            "speedup": speedup,
            "max_abs_diff": max_abs_diff,
            "answer_scale": scale,
            "answers_match": answers_match,
            "slice_segment_bytes": list(slice_bytes),
            "max_slice_bytes": max_slice_bytes,
            "full_histogram_bytes": full_histogram_bytes,
            "partition_bound_bytes": partition_bound_bytes,
            "partition_bound_holds": partition_bound_holds,
            "selections_match": selections_match,
            "pmw_histogram_diff": pmw_histogram_diff,
            "histograms_close": histograms_close,
            "slice_roundtrip_ok": slice_roundtrip_ok,
            "selected_queries": list(pmw_serial.selected_queries),
        }
    finally:
        domain.close()
