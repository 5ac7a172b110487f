"""Release benchmark: warm ``release_synthetic_data`` calls on four workloads.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload tpch_chain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 [--record out.json]

One workload per process.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  The line before it
is ``detail: {...}`` with the host record, sample counts and the tail
percentile.  ``--workload all`` runs every workload in its own process and
prints each metric by name and unit with its sample count.  The exit code is
0 only when every release passed its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("marginals_2t", "ranges_1t", "tpch_chain", "hier_uniformize")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--record", type=Path, help="with --workload all: write the runs here")
    return parser.parse_args(argv)


def _run_one(args: argparse.Namespace) -> int:
    from perfbench import measure

    result = measure.run(
        args.workload, args.seed, args.seconds, trace=bool(args.trace), tiny=args.tiny
    )
    print("detail: " + json.dumps(result.detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


def _run_all(args: argparse.Namespace) -> int:
    runs, status = [], 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name}: exited {completed.returncode}\n{completed.stderr}", file=sys.stderr)
            return 2
        detail = json.loads(lines[-2].removeprefix("detail: "))
        result = json.loads(lines[-1])
        status = max(status, completed.returncode)
        runs.append({"workload": name, "detail": detail, "result": result})
        samples = detail.get("samples", detail.get("traced_samples"))
        header = f"{name}: backend={detail['backend']} samples={samples}"
        if "tail_percentile" in detail:
            header += f" setups={detail['setup_samples']} tail=p{detail['tail_percentile']:.1f}"
        print(header + f" attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
        for metric in ("linf_error_rel", "failed_share"):
            if detail.get(metric) is not None:
                print(f"  {metric:<44} {detail[metric]:>14.6g} ratio (reported, not gated)")
        for problem in detail["problems"]:
            print(f"  FAILED: {problem}")
    if args.record is not None:
        record = {"host": runs[0]["detail"]["host"], "seed": args.seed, "runs": runs}
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
