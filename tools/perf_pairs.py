"""Alternate benchmark runs of a parent revision and the working tree.

Run:  python tools/perf_pairs.py PARENT_REV [--pairs N] [--workload W]...
          [--seed S]

Checks ``PARENT_REV`` out into a temporary ``git worktree``, then runs
``benchmarks/perf/run.py --trace 0`` for every chosen workload ``N``
times on each side for ``BENCHMARK.json``'s ``run_seconds``,
alternating parent and working tree (and which of the two goes first
in each pair, so a drift of the host's speed does not favour one
side).  Each side's runs go into one results file under
``.perf_pairs/`` (``parent.json`` and ``change.json``), one set per
pair, in the format ``python -m benchmarks.perf compare`` reads; the
script then prints that command's verdicts and exits with its status
(1 when a metric got worse, or when a run was not correct or had
failed repetitions).  ``compare`` says ``improved`` only from 10 pairs
on.  (``python -m benchmarks.perf run`` measures every workload in one
go; ``run.py`` measures one, so one workload can be paired alone.)

The parent side runs the parent's own ``benchmarks/perf``, as the
benchmark compares two commits.  The worktree is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perf_pairs"

#: The seed whose digests ``benchmarks/perf/reference.json`` pins.
DEFAULT_SEED = 7


def _spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python tools/perf_pairs.py",
        description=__doc__.split("\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV",
                        help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating parent/change pairs (default 10)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run; repeat for several "
                             "(default: every workload)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")
    args.workload = args.workload or names
    args.seconds = float(spec["run_seconds"])
    return args


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> Dict[str, Any]:
    """One ``run.py`` invocation in ``checkout``; returns its JSON line."""
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} in {checkout} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    result: Dict[str, Any] = json.loads(lines[-1])
    return result


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    results: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
    clean = True
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        parent_tree = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach",
                        str(parent_tree), args.parent], cwd=ROOT, check=True)
        try:
            trees = {"parent": parent_tree, "change": ROOT}
            for pair in range(args.pairs):
                sides = ["parent", "change"] if pair % 2 == 0 \
                    else ["change", "parent"]
                for side in sides:
                    workloads = {}
                    for name in args.workload:
                        out = run_once(trees[side], name, args.seed,
                                       args.seconds)
                        workloads[name] = {"end_to_end": out["metrics"]}
                        clean = clean and out["correct"] and not out["failed"]
                        print(f"pair {pair + 1}/{args.pairs} {side:<6} "
                              f"{name}: correct {out['correct']}, failed "
                              f"{out['failed']}, throughput "
                              f"{out['metrics']['throughput_per_s']['value']:.6g}",
                              flush=True)
                    results[side].append({
                        "seed": args.seed, "run_seconds": args.seconds,
                        "workloads": workloads})
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(parent_tree)], cwd=ROOT, check=False)
    paths = {}
    for side, sets in results.items():
        paths[side] = OUT_DIR / f"{side}.json"
        paths[side].write_text(json.dumps({"sets": sets}, indent=1) + "\n",
                               encoding="utf-8")
    status = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "compare",
         str(paths["parent"]), str(paths["change"])],
        cwd=ROOT, check=False).returncode
    if not clean:
        print("error: a run was not correct or had failed repetitions",
              file=sys.stderr)
        return status or 1
    return status


if __name__ == "__main__":
    sys.exit(main())
