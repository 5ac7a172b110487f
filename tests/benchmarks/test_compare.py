"""The perf-regression gate (``benchmarks/compare.py``).

Covers the ISSUE-mandated behaviours: identical records pass, an injected
slowdown beyond tolerance fails, a benchmark missing from the candidate run
fails, new benchmarks are reported but do not fail, the absolute floors keep
millisecond jitter from tripping the gate, and the CLI produces the JSON /
markdown reports with the right exit codes.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"

spec = importlib.util.spec_from_file_location("compare", _BENCH_DIR / "compare.py")
compare = importlib.util.module_from_spec(spec)
# Dataclass field resolution looks the module up by name at class-creation
# time, so it must be registered before exec.
sys.modules["compare"] = compare
spec.loader.exec_module(compare)


def _record(name: str, wall: float, mib: float = 64.0, stages: dict | None = None) -> dict:
    return {
        "schema_version": 2,
        "benchmark": name,
        "wall_seconds": wall,
        "peak_mib": mib,
        "stages": stages or {},
    }


@pytest.fixture()
def baseline() -> dict:
    return {
        "bench_a": _record(
            "bench_a", 2.0, stages={"pmw.round": {"wall_seconds": 1.5, "count": 4}}
        ),
        "bench_b": _record("bench_b", 0.01),
    }


class TestCompareRecords:
    def test_identical_records_pass(self, baseline):
        report = compare.compare_records(baseline, copy.deepcopy(baseline))
        assert report.ok
        assert not report.regressions
        assert not report.missing and not report.new

    def test_injected_slowdown_fails(self, baseline):
        candidate = copy.deepcopy(baseline)
        candidate["bench_a"]["wall_seconds"] = 4.0  # 2x, +2s: over both bars
        report = compare.compare_records(baseline, candidate)
        assert not report.ok
        assert [(f.benchmark, f.metric) for f in report.regressions] == [
            ("bench_a", "wall_seconds")
        ]
        assert report.regressions[0].ratio == pytest.approx(2.0)

    def test_stage_slowdown_fails(self, baseline):
        candidate = copy.deepcopy(baseline)
        candidate["bench_a"]["stages"]["pmw.round"]["wall_seconds"] = 3.75
        report = compare.compare_records(baseline, candidate)
        assert [f.metric for f in report.regressions] == ["stage:pmw.round"]

    def test_stage_comparison_can_be_disabled(self, baseline):
        candidate = copy.deepcopy(baseline)
        candidate["bench_a"]["stages"]["pmw.round"]["wall_seconds"] = 3.75
        report = compare.compare_records(baseline, candidate, compare_stages=False)
        assert report.ok

    def test_memory_regression(self, baseline):
        candidate = copy.deepcopy(baseline)
        candidate["bench_b"]["peak_mib"] = 256.0
        report = compare.compare_records(baseline, candidate)
        assert [f.metric for f in report.regressions] == ["peak_mib"]

    def test_millisecond_jitter_is_ignored(self, baseline):
        candidate = copy.deepcopy(baseline)
        candidate["bench_b"]["wall_seconds"] = 0.05  # 5x, but only +40ms
        report = compare.compare_records(baseline, candidate)
        assert report.ok

    def test_missing_benchmark_fails(self, baseline):
        candidate = copy.deepcopy(baseline)
        del candidate["bench_b"]
        report = compare.compare_records(baseline, candidate)
        assert not report.ok
        assert report.missing == ["bench_b"]

    def test_new_benchmark_does_not_fail(self, baseline):
        candidate = copy.deepcopy(baseline)
        candidate["bench_c"] = _record("bench_c", 1.0)
        report = compare.compare_records(baseline, candidate)
        assert report.ok
        assert report.new == ["bench_c"]

    def test_speedup_never_regresses(self, baseline):
        candidate = copy.deepcopy(baseline)
        candidate["bench_a"]["wall_seconds"] = 0.5
        report = compare.compare_records(baseline, candidate)
        assert report.ok

    def test_tolerance_is_configurable(self, baseline):
        candidate = copy.deepcopy(baseline)
        candidate["bench_a"]["wall_seconds"] = 2.8  # +40%, +0.8s
        assert compare.compare_records(baseline, candidate).ok
        strict = compare.compare_records(baseline, candidate, tolerance=0.25)
        assert not strict.ok


class TestCli:
    def _write(self, directory: Path, records: dict) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, record in records.items():
            path = directory / f"BENCH_{name.removeprefix('bench_')}.json"
            path.write_text(json.dumps(record, indent=2) + "\n")

    def test_help_exits_zero(self):
        completed = subprocess.run(
            [sys.executable, str(_BENCH_DIR / "compare.py"), "--help"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        help_text = " ".join(completed.stdout.split())  # undo argparse line wrapping
        assert f"(default: {100 * compare.DEFAULT_TOLERANCE:.0f}%)" in help_text

    def test_clean_run_exits_zero_and_writes_reports(self, tmp_path, baseline, capsys):
        self._write(tmp_path / "base", baseline)
        self._write(tmp_path / "cand", baseline)
        json_out = tmp_path / "report.json"
        md_out = tmp_path / "report.md"
        status = compare.main(
            [
                "--baseline", str(tmp_path / "base"),
                "--candidate", str(tmp_path / "cand"),
                "--json-out", str(json_out),
                "--md-out", str(md_out),
            ]
        )
        assert status == 0
        assert "**PASS**" in capsys.readouterr().out
        report = json.loads(json_out.read_text())
        assert report["ok"] is True
        assert report["compared"] >= 4
        assert md_out.read_text().startswith("# Benchmark regression gate")

    def test_regression_exits_one_with_fail_report(self, tmp_path, baseline, capsys):
        candidate = copy.deepcopy(baseline)
        candidate["bench_a"]["wall_seconds"] = 9.0
        self._write(tmp_path / "base", baseline)
        self._write(tmp_path / "cand", candidate)
        status = compare.main(
            ["--baseline", str(tmp_path / "base"), "--candidate", str(tmp_path / "cand")]
        )
        assert status == 1
        out = capsys.readouterr().out
        assert "**FAIL**" in out
        assert "## Regressions" in out

    def test_no_baseline_records_is_usage_error(self, tmp_path, baseline):
        self._write(tmp_path / "cand", baseline)
        (tmp_path / "base").mkdir()
        status = compare.main(
            ["--baseline", str(tmp_path / "base"), "--candidate", str(tmp_path / "cand")]
        )
        assert status == 2

    def test_unreadable_record_raises(self, tmp_path):
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        with pytest.raises(ValueError, match="unreadable benchmark record"):
            compare.load_records(tmp_path)

    def test_gate_passes_against_committed_records(self):
        """The committed repo-root baseline must agree with itself."""
        records = compare.load_records(_BENCH_DIR.parent)
        if not records:
            pytest.skip("no committed BENCH records at the repo root")
        report = compare.compare_records(records, copy.deepcopy(records))
        assert report.ok
