"""Benchmark entry point: one workload per invocation.

    python3 benchmarks/perf/run.py --workload mach_hits --seed 7 \\
        --seconds 20 --trace 0

Prints every metric with its name and unit (with ``--trace 1``, every
per-layer metric the traced pass derives), then, as the last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Exits 2
without a result when the checkout holds no simulator sources, and 1
when a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def print_metrics(metrics: Dict[str, Dict[str, Any]]) -> None:
    """One line per metric: name, value, unit, and quartiles if known."""
    for name, entry in metrics.items():
        spread = ""
        if "n" in entry:
            spread = (f"  (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, "
                      f"n={entry['n']})")
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}{spread}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    from benchmarks.perf import harness, layers

    try:
        harness.require_program()
    except harness.HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = harness.benchmark_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        harness.compile_sources()
        record = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            setup_workers=1 if args.trace else harness.SETUP_WORKERS)
    except harness.HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        units = layers.units()
        shown = {k: {"value": v, "unit": units[k]}
                 for k, v in record["per_layer"].items()}
        wanted = spec["per_layer"]
    else:
        shown = {m["name"]: dict(record["end_to_end"][m["name"]],
                                 unit=m["unit"]) for m in spec["end_to_end"]}
        wanted = spec["end_to_end"]
    print(f"{args.workload} seed={args.seed} "
          f"digest={record['detail']['digest']} "
          f"pinned_checked={record['detail']['pinned_digest_checked']}")
    print_metrics(shown)
    for error in record["detail"]["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": shown[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    # Run as a script: import the package from the repository root, not
    # from this directory (whose module names must not shadow others).
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    sys.exit(main())
