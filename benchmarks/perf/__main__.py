"""Command line for the whole benchmark.

    PYTHONPATH=src python -m benchmarks.perf run [--seed N] [--out results.json]
    PYTHONPATH=src python -m benchmarks.perf compare PARENT.json CHANGE.json...

``run`` measures and traces every workload of ``BENCHMARK.json`` in
turn, each for its ``run_seconds``, and prints every end-to-end and
per-layer metric with its unit.  With ``--out`` it appends the set to
that results file and writes the spans of the traced passes to
``<out stem>.trace.json``.  It exits 1 when a repetition failed.

``compare`` prints a verdict for every (end-to-end metric, workload)
pair of each change file against the parent file (see
:mod:`.compare`) and exits 1 when any is ``worse``, 2 when the files
cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import compare, harness, layers
from .run import print_metrics
from .workloads import DEFAULT_SEED


def _layer_shares(ledger: Dict[str, Dict[str, float]]) -> None:
    total = ledger["total"]["incl_s"]
    print(f"  {'layer self time':<44} {'share':>8} {'calls':>9}")
    layer_rows = sorted(((k, v) for k, v in ledger.items()
                         if ":" not in k and k != "total"),
                        key=lambda kv: -kv[1]["self_s"])
    for key, row in layer_rows:
        print(f"  {key:<44} {row['self_s'] / total:>8.1%} "
              f"{int(row['calls']):>9}")
    print(f"  {'coverage of the traced total':<44} "
          f"{ledger['total']['coverage']:>8.1%}")


def _run(args: argparse.Namespace) -> int:
    harness.require_program()
    harness.compile_sources()
    spec = harness.benchmark_spec()
    seconds = spec["run_seconds"]
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = layers.units()
    result: Dict[str, Any] = {"seed": args.seed, "run_seconds": seconds,
                              "host": harness.host(), "workloads": {}}
    spans: Dict[str, List[list]] = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        record = harness.run_workload(name, args.seed, seconds, trace=True)
        spans[name] = record.pop("spans")
        result["workloads"][name] = record
        print(f"\n{name} (seed {args.seed}): {record['failed']} of "
              f"{record['attempted']} repetitions failed, failed_frac "
              f"{record['failed'] / record['attempted']:.3g}; digest "
              f"{record['detail']['digest'][:16]} "
              f"(pinned checked: {record['detail']['pinned_digest_checked']})")
        print_metrics({k: dict(v, unit=e2e_units[k])
                       for k, v in record["end_to_end"].items()})
        print_metrics({k: {"value": v, "unit": layer_units[k]}
                       for k, v in record["per_layer"].items()})
        _layer_shares(record["detail"]["ledger"])
    if args.out:
        out = Path(args.out)
        sets = harness.load_json(out)["sets"] if out.exists() else []
        sets.append(result)
        out.write_text(json.dumps({"sets": sets}, indent=1) + "\n",
                       encoding="utf-8")
        out.with_suffix(".trace.json").write_text(
            json.dumps(spans) + "\n", encoding="utf-8")
        print(f"\nappended set {len(sets)} to {out}")
    return 0 if all(r["correct"] for r in result["workloads"].values()) else 1


def _compare(args: argparse.Namespace) -> int:
    metrics = harness.benchmark_spec()["end_to_end"]
    parent = harness.load_json(Path(args.parent))
    worse = False
    for path in args.change:
        rows = compare.compare(parent, harness.load_json(Path(path)), metrics)
        print(f"{path} vs {args.parent}:")
        print(compare.render(rows))
        worse = worse or any(cell[0] == "worse" for row in rows.values()
                             for cell in row.values())
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf",
                                     description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure and trace every workload")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--out", help="results file to append this set to")
    cmp = commands.add_parser("compare", help="verdicts against a parent")
    cmp.add_argument("parent")
    cmp.add_argument("change", nargs="+")
    args = parser.parse_args(argv)
    try:
        return _run(args) if args.command == "run" else _compare(args)
    except (harness.HarnessError, compare.MismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
