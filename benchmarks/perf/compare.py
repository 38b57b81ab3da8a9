"""Verdicts for a change against its parent, one row per workload.

Each results file (``python -m benchmarks.perf run --out F`` appends
one set to ``F``) holds one or more sets; set ``i`` of the change is
paired with set ``i`` of the parent, so run the two commits
alternately.  Paired sets must have the same seed and run length, or
:func:`compare` raises :class:`MismatchError`.  For every (end-to-end
metric, workload) pair, with the bound from ``BENCHMARK.json``:

* ``improved`` — at least ``MIN_PAIRS`` pairs, the change wins at
  least nine tenths of them (ties count for neither), and its median
  beats the parent's by more than the parent's interquartile spread;
* ``unresolved`` — otherwise, when the parent's interquartile spread
  is wider than the bound, unless every change run beats every parent
  run;
* ``worse`` — otherwise, when the change's median is worse than the
  parent's by more than the bound;
* ``unchanged`` — otherwise.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9

#: Settings a parent set and the change set paired with it must share.
PAIRED_SETTINGS = ("seed", "run_seconds")


class MismatchError(ValueError):
    """Paired sets were not measured with the same settings."""


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """One metric on one workload; ``better`` is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    noise = spread(parent)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > noise):
        return "improved"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if noise > bound * abs(base) and not all_better:
        return "unresolved"
    if -gain > bound * abs(base):
        return "worse"
    return "unchanged"


def _values(sets: Sequence[Dict[str, Any]], workload: str,
            metric: str) -> List[float]:
    return [s["workloads"][workload]["end_to_end"][metric]["value"]
            for s in sets if workload in s["workloads"]]


def compare(parent: Dict[str, Any], change: Dict[str, Any],
            metrics: Sequence[Dict[str, Any]]
            ) -> Dict[str, Dict[str, Tuple[str, float]]]:
    """``{workload: {metric: (verdict, median change as a fraction)}}``."""
    for index, (before, after) in enumerate(zip(parent["sets"],
                                                change["sets"])):
        for key in PAIRED_SETTINGS:
            if before[key] != after[key]:
                raise MismatchError(
                    f"set {index + 1}: parent has {key} {before[key]}, "
                    f"change has {after[key]}")
    rows: Dict[str, Dict[str, Tuple[str, float]]] = {}
    workloads = [w for w in parent["sets"][0]["workloads"]
                 if w in change["sets"][0]["workloads"]]
    for workload in workloads:
        row = rows.setdefault(workload, {})
        for metric in metrics:
            before = _values(parent["sets"], workload, metric["name"])
            after = _values(change["sets"], workload, metric["name"])
            base = statistics.median(before)
            delta = (statistics.median(after) - base) / base if base else 0.0
            row[metric["name"]] = (
                verdict(before, after, metric["better"], metric["bound"]),
                delta)
    return rows


def render(rows: Dict[str, Dict[str, Tuple[str, float]]]) -> str:
    """A text table: one row per workload, one column per metric."""
    metrics = list(next(iter(rows.values()), {}))
    lines = ["workload".ljust(22) + "".join(m.ljust(26) for m in metrics)]
    for workload, row in rows.items():
        cells = [f"{row[m][0]} ({row[m][1]:+.1%})".ljust(26) for m in metrics]
        lines.append(workload.ljust(22) + "".join(cells))
    return "\n".join(lines)
