"""Compare benchmark records made with ``run.py --workload all --record``.

Usage::

    python3 perfbench/compare.py --base a1.json a2.json --new b1.json b2.json

Each side's value of a metric is its median over that side's records.  A
metric regresses when the new median is worse than the base median by more
than the metric's ``bound`` in ``BENCHMARK.json``.  Records from hosts with a
different ``effective_cpus`` are refused: the automatic backend choice and
the parallel paths depend on the core count, so such numbers do not compare.

Exit codes: 0 no regression, 1 regression, 2 refused or unusable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Refused(Exception):
    """The records cannot be compared."""


def host_class(records: list[dict]) -> int:
    """The ``effective_cpus`` shared by every record, or :class:`Refused`."""
    cpus = {record["host"]["effective_cpus"] for record in records}
    if len(cpus) != 1:
        raise Refused(f"records come from hosts with different effective_cpus: {sorted(cpus)}")
    return cpus.pop()


def medians(records: list[dict]) -> dict[tuple[str, str], float]:
    values: dict[tuple[str, str], list[float]] = {}
    for record in records:
        for run in record["runs"]:
            for metric, entry in run["result"]["metrics"].items():
                values.setdefault((run["workload"], metric), []).append(entry["value"])
    return {key: statistics.median(vals) for key, vals in values.items()}


def compare(base: list[dict], new: list[dict], specs: list[dict]) -> list[str]:
    """Regression messages of ``new`` against ``base`` (empty when none)."""
    host_class(base + new)
    bounds = {spec["name"]: spec for spec in specs}
    before, after = medians(base), medians(new)
    regressions = []
    for (workload, metric), old in sorted(before.items()):
        spec = bounds.get(metric)
        if spec is None or (workload, metric) not in after or old == 0:
            continue
        current = after[(workload, metric)]
        change = (current - old) / abs(old)
        worse = change if spec["better"] == "lower" else -change
        verdict = "REGRESSED" if worse > spec["bound"] else "ok"
        line = f"{workload:<16} {metric:<16} {old:>12.6g} -> {current:>12.6g} {change:+8.1%}"
        line += f" {verdict}"
        print(line)
        if verdict != "ok":
            regressions.append(line)
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    specs = json.loads(BENCHMARK.read_text())["end_to_end"]
    try:
        base = [json.loads(path.read_text()) for path in args.base]
        new = [json.loads(path.read_text()) for path in args.new]
        regressions = compare(base, new, specs)
    except (OSError, ValueError, KeyError, Refused) as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
