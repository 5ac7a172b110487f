#!/usr/bin/env python
"""The perf-regression gate: diff fresh BENCH records against committed ones.

Every smoke run of ``benchmarks/run_all.py`` writes one machine-readable
``BENCH_<id>.json`` record per benchmark (schema v2: wall time, peak traced
memory, backend, per-stage wall/CPU breakdown).  The committed copies at the
repo root are the *baseline* — the performance trajectory the PRs 1-8 wins
are recorded in.  This gate compares a candidate run against that baseline
and fails (exit 1) when anything got slower beyond tolerance::

    python benchmarks/run_all.py --no-root-copy          # fresh candidate records
    python benchmarks/compare.py                         # gate: results/ vs repo root
    python benchmarks/run_all.py --compare               # both in one step

Comparison rules (per benchmark, and per shared stage of its telemetry
breakdown):

- a measurement **regresses** when ``candidate > baseline * (1 + tolerance)``
  AND ``candidate - baseline > min_seconds`` — the relative bound catches
  real slowdowns, the absolute floor keeps millisecond-scale smoke runs from
  tripping the gate on scheduler noise;
- a benchmark present in the baseline but missing from the candidate run is
  a failure (a benchmark was dropped or crashed);
- a candidate benchmark with no baseline is reported as *new* (not a
  failure — the first run after adding a benchmark seeds its baseline);
- peak traced memory regresses under the same relative rule with an absolute
  floor in MiB.

The report is emitted as markdown (human review / CI job summary) and JSON
(machine consumption); both can be written to files.  Exit status: 0 clean,
1 regression or missing benchmark, 2 usage error (e.g. no baseline records).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

_BENCH_DIR = Path(__file__).resolve().parent
_REPO_ROOT = _BENCH_DIR.parent

#: Defaults tuned for smoke-size records: generous relative headroom plus an
#: absolute floor well above single-benchmark jitter on a busy CI box.
DEFAULT_TOLERANCE = 0.50
DEFAULT_MIN_SECONDS = 0.25
DEFAULT_MIN_MIB = 16.0


@dataclass
class Finding:
    """One comparison outcome for a benchmark (or one of its stages)."""

    benchmark: str
    metric: str
    baseline: float
    candidate: float
    regressed: bool

    @property
    def ratio(self) -> float:
        if self.baseline <= 0:
            return float("inf") if self.candidate > 0 else 1.0
        return self.candidate / self.baseline

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "metric": self.metric,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "ratio": round(self.ratio, 4),
            "regressed": self.regressed,
        }


@dataclass
class Report:
    """The gate's full verdict."""

    findings: list[Finding] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    new: list[str] = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE
    min_seconds: float = DEFAULT_MIN_SECONDS
    min_mib: float = DEFAULT_MIN_MIB

    @property
    def regressions(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "min_seconds": self.min_seconds,
            "min_mib": self.min_mib,
            "compared": len(self.findings),
            "regressions": [finding.to_dict() for finding in self.regressions],
            "missing": self.missing,
            "new": self.new,
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def to_markdown(self) -> str:
        lines = ["# Benchmark regression gate", ""]
        verdict = "**PASS**" if self.ok else "**FAIL**"
        lines.append(
            f"{verdict} — {len(self.findings)} measurement(s) compared, "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.missing)} missing, {len(self.new)} new "
            f"(tolerance +{self.tolerance:.0%}, floors "
            f"{self.min_seconds}s / {self.min_mib} MiB)."
        )
        lines.append("")
        if self.regressions:
            lines += [
                "## Regressions",
                "",
                "| benchmark | metric | baseline | candidate | ratio |",
                "| --- | --- | ---: | ---: | ---: |",
            ]
            for finding in self.regressions:
                lines.append(
                    f"| {finding.benchmark} | {finding.metric} "
                    f"| {finding.baseline:.4f} | {finding.candidate:.4f} "
                    f"| {finding.ratio:.2f}x |"
                )
            lines.append("")
        if self.missing:
            lines += ["## Missing from candidate", ""]
            lines += [f"- `{name}`" for name in self.missing]
            lines.append("")
        if self.new:
            lines += ["## New benchmarks (no baseline yet)", ""]
            lines += [f"- `{name}`" for name in self.new]
            lines.append("")
        lines += [
            "## All wall-time comparisons",
            "",
            "| benchmark | metric | baseline | candidate | ratio | verdict |",
            "| --- | --- | ---: | ---: | ---: | --- |",
        ]
        for finding in sorted(
            self.findings, key=lambda f: (f.benchmark, f.metric)
        ):
            verdict = "regressed" if finding.regressed else "ok"
            lines.append(
                f"| {finding.benchmark} | {finding.metric} "
                f"| {finding.baseline:.4f} | {finding.candidate:.4f} "
                f"| {finding.ratio:.2f}x | {verdict} |"
            )
        return "\n".join(lines) + "\n"


def load_records(directory: Path) -> dict[str, dict]:
    """Every ``BENCH_<id>.json`` in ``directory``, keyed by benchmark name."""
    records: dict[str, dict] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"unreadable benchmark record {path}: {exc}") from exc
        name = record.get("benchmark") or f"bench_{path.stem.removeprefix('BENCH_')}"
        records[name] = record
    return records


def _is_regression(
    baseline: float, candidate: float, tolerance: float, floor: float
) -> bool:
    return candidate > baseline * (1.0 + tolerance) and candidate - baseline > floor


def compare_records(
    baseline: dict[str, dict],
    candidate: dict[str, dict],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    min_mib: float = DEFAULT_MIN_MIB,
    compare_stages: bool = True,
) -> Report:
    """Compare two record sets and return the gate's :class:`Report`."""
    report = Report(tolerance=tolerance, min_seconds=min_seconds, min_mib=min_mib)
    report.missing = sorted(set(baseline) - set(candidate))
    report.new = sorted(set(candidate) - set(baseline))
    for name in sorted(set(baseline) & set(candidate)):
        base, cand = baseline[name], candidate[name]
        base_wall = float(base.get("wall_seconds", 0.0))
        cand_wall = float(cand.get("wall_seconds", 0.0))
        report.findings.append(
            Finding(
                benchmark=name,
                metric="wall_seconds",
                baseline=base_wall,
                candidate=cand_wall,
                regressed=_is_regression(base_wall, cand_wall, tolerance, min_seconds),
            )
        )
        base_mib = float(base.get("peak_mib", 0.0))
        cand_mib = float(cand.get("peak_mib", 0.0))
        report.findings.append(
            Finding(
                benchmark=name,
                metric="peak_mib",
                baseline=base_mib,
                candidate=cand_mib,
                regressed=_is_regression(base_mib, cand_mib, tolerance, min_mib),
            )
        )
        if not compare_stages:
            continue
        base_stages = base.get("stages") or {}
        cand_stages = cand.get("stages") or {}
        for stage in sorted(set(base_stages) & set(cand_stages)):
            base_stage = float(base_stages[stage].get("wall_seconds", 0.0))
            cand_stage = float(cand_stages[stage].get("wall_seconds", 0.0))
            report.findings.append(
                Finding(
                    benchmark=name,
                    metric=f"stage:{stage}",
                    baseline=base_stage,
                    candidate=cand_stage,
                    regressed=_is_regression(
                        base_stage, cand_stage, tolerance, min_seconds
                    ),
                )
            )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=_REPO_ROOT,
        help=f"directory of committed baseline records (default: {_REPO_ROOT})",
    )
    parser.add_argument(
        "--candidate",
        type=Path,
        default=_BENCH_DIR / "results",
        help="directory of fresh candidate records "
        f"(default: {_BENCH_DIR / 'results'})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative slowdown allowed before flagging "
        # argparse %-formats help strings, so the percent sign is doubled.
        f"(default: {100 * DEFAULT_TOLERANCE:.0f}%%)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        help="absolute wall-time growth a regression must also exceed "
        f"(default: {DEFAULT_MIN_SECONDS}s)",
    )
    parser.add_argument(
        "--min-mib",
        type=float,
        default=DEFAULT_MIN_MIB,
        help="absolute peak-memory growth a regression must also exceed "
        f"(default: {DEFAULT_MIN_MIB} MiB)",
    )
    parser.add_argument(
        "--no-stages",
        action="store_true",
        help="compare only whole-benchmark wall time and memory, not the "
        "per-stage telemetry breakdown",
    )
    parser.add_argument(
        "--json-out", type=Path, default=None, help="write the JSON report here"
    )
    parser.add_argument(
        "--md-out", type=Path, default=None, help="write the markdown report here"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the markdown report on stdout"
    )
    args = parser.parse_args(argv)

    baseline = load_records(args.baseline)
    candidate = load_records(args.candidate)
    if not baseline:
        print(f"no BENCH_*.json baseline records in {args.baseline}", file=sys.stderr)
        return 2
    if not candidate:
        print(f"no BENCH_*.json candidate records in {args.candidate}", file=sys.stderr)
        return 2

    report = compare_records(
        baseline,
        candidate,
        tolerance=args.tolerance,
        min_seconds=args.min_seconds,
        min_mib=args.min_mib,
        compare_stages=not args.no_stages,
    )
    if args.json_out is not None:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        args.json_out.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    if args.md_out is not None:
        args.md_out.parent.mkdir(parents=True, exist_ok=True)
        args.md_out.write_text(report.to_markdown())
    if not args.quiet:
        print(report.to_markdown())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
