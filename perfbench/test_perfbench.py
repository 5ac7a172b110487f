"""Tests of the release benchmark itself, at tiny input sizes.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.core.pmw
import repro.telemetry
from repro import shared_evaluator
from repro.mechanisms.ledger import ambient_ledger
from repro.relational.join import join_size

from perfbench import checks, compare, measure, run, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name):
    result = measure.run(name, 3, 0.05, trace=False, tiny=True)
    assert result.correct, result.detail["problems"]
    assert result.failed == 0 and result.attempted >= 2
    assert {metric: unit for metric, (_, unit) in result.metrics.items()} == _units("end_to_end")
    assert all(value > 0 for value, _ in result.metrics.values())
    assert result.detail["samples"] >= 1
    assert result.detail["host"]["effective_cpus"] >= 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_emits_every_per_layer_metric(name):
    result = measure.run(name, 3, 0.05, trace=True, tiny=True)
    assert result.correct, result.detail["problems"]
    assert {metric: unit for metric, (_, unit) in result.metrics.items()} == _units("per_layer")
    metrics = {metric: value for metric, (value, _) in result.metrics.items()}
    assert metrics["core.pmw.calls"] >= 1
    assert metrics["queries.session.answers_calls"] >= 1
    assert 0.0 <= metrics["queries.evaluator_cache.hit_ratio"] <= 1.0
    # The wrappers are gone again once the traced half ends.
    assert repro.core.pmw.join_size is join_size


def test_untraced_releases_run_without_wrappers_ledger_or_telemetry(monkeypatch):
    real = workloads.Inputs.release
    seen = []

    def observed(self, instance, workload, seed):
        seen.append(
            (
                repro.core.pmw.join_size is join_size,
                ambient_ledger() is None,
                repro.telemetry.is_enabled(),
            )
        )
        return real(self, instance, workload, seed)

    monkeypatch.setattr(workloads.Inputs, "release", observed)
    measure.run("tpch_chain", 1, 0.05, trace=False, tiny=True)
    assert seen and all(entry == (True, True, False) for entry in seen)


def test_corrupted_release_counts_toward_failed_share(monkeypatch):
    real = workloads.Inputs.release

    def corrupted(self, instance, workload, seed):
        result = real(self, instance, workload, seed)
        if seed != self.release_seeds[0]:  # keep the set-up release intact
            result.synthetic.histogram = np.full_like(result.synthetic.histogram, np.nan)
        return result

    monkeypatch.setattr(workloads.Inputs, "release", corrupted)
    result = measure.run("tpch_chain", 1, 0.05, trace=False, tiny=True)
    assert not result.correct
    assert result.failed >= 1
    assert result.detail["failed_share"] == result.failed / result.attempted > 0
    assert any("non-finite" in problem for problem in result.detail["problems"])


def test_check_release_flags_wrong_privacy_and_mass():
    inputs = workloads.make_inputs("marginals_2t", 0, tiny=True)
    instance, workload = inputs.build()
    result = inputs.release(instance, workload, 7)
    evaluator = shared_evaluator(workload, backend="auto", workers=1)
    _, problems = checks.check_release(
        result, workload=workload, evaluator=evaluator, epsilon=1.0, delta=1e-6
    )
    assert problems == []
    _, problems = checks.check_release(
        result, workload=workload, evaluator=evaluator, epsilon=2.0, delta=1e-6
    )
    assert any("privacy" in problem for problem in problems)
    result.synthetic.histogram = result.synthetic.histogram * 2.0
    _, problems = checks.check_release(
        result, workload=workload, evaluator=evaluator, epsilon=1.0, delta=1e-6
    )
    assert any("mass" in problem for problem in problems)


def test_workload_names_agree():
    names = {workload["name"] for workload in SPEC["workloads"]}
    assert names == set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_same_seed_gives_same_inputs():
    first = workloads.make_inputs("hier_uniformize", 5, tiny=True)
    second = workloads.make_inputs("hier_uniformize", 5, tiny=True)
    other = workloads.make_inputs("hier_uniformize", 6, tiny=True)
    assert first.release_seeds == second.release_seeds != other.release_seeds
    for name, frequencies in first.frequencies.items():
        assert np.array_equal(frequencies, second.frequencies[name])


def test_tail_has_ten_samples_beyond_it():
    samples = [float(value) for value in range(1, 101)]
    value, percentile, beyond = measure.tail(samples)
    assert (value, percentile, beyond) == (90.0, 90.0, 10)
    assert sum(sample > value for sample in samples) == 10
    value, percentile, _ = measure.tail(samples[:15])
    assert (value, percentile) == (8.0, 50.0)


def _record(cpus: int, p50: float) -> dict:
    metrics = {"release_s.p50": {"value": p50, "unit": "s"}}
    return {
        "host": {"effective_cpus": cpus},
        "runs": [{"workload": "tpch_chain", "result": {"metrics": metrics}}],
    }


def test_compare_refuses_other_host_class_and_flags_regressions():
    specs = SPEC["end_to_end"]
    with pytest.raises(compare.Refused):
        compare.compare([_record(2, 1.0)], [_record(4, 1.0)], specs)
    assert compare.compare([_record(2, 1.0)], [_record(2, 1.01)], specs) == []
    assert len(compare.compare([_record(2, 1.0)], [_record(2, 2.0)], specs)) == 1


def test_cli_prints_result_last_and_fails_without_program(tmp_path):
    command = [sys.executable, "perfbench/run.py", "--workload", "tpch_chain"]
    command += ["--seed", "2", "--seconds", "0.05", "--trace", "0", "--tiny"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    bare = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, check=False)
    assert bare.returncode != 0
    assert bare.stdout == ""
