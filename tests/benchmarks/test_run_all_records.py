"""Records written by ``benchmarks/run_all.py`` for experiments that trace memory.

Runs by default (unlike the opt-in ``--bench-smoke`` sweep): one smoke-size
experiment that measures its own per-mode peaks must not zero the runner's
memory record.
"""

from __future__ import annotations

import importlib.util
import json
import tracemalloc
from pathlib import Path

_BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


def _load_run_all():
    spec = importlib.util.spec_from_file_location("run_all", _BENCH_DIR / "run_all.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_e15_record_keeps_a_nonzero_peak(tmp_path):
    run_all = _load_run_all()
    name = "bench_e15_evaluator_scaling"
    runner, kwargs = run_all.SMOKE_RUNS[name]
    result = run_all._execute_benchmark(name, runner, kwargs, tmp_path)
    record = json.loads((tmp_path / "BENCH_e15_evaluator_scaling.json").read_text())
    assert record["peak_mib"] > 0.0
    assert all(row["peak_mib"] > 0.0 for row in result["rows"])
    # The record spans the whole run, not just the span after E15's last
    # per-mode peak reset.
    largest_mode_peak = max(row["peak_mib"] for row in result["rows"])
    assert record["peak_mib"] >= round(largest_mode_peak, 3)
    assert not tracemalloc.is_tracing()
