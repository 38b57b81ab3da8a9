"""Outside-in layer tracing for the benchmark's traced pass.

Nothing inside ``src/`` knows it is traced: :func:`installed` replaces
each layer's public entry point — a class method, or a module
attribute at its import site such as ``repro.core.writeback
.crc_pair_blocks`` — with a wrapper that records one span per call, and
puts every original back on exit.  A span is ``[name, start, end,
parent]``; spans stay in memory and the caller writes them out.

The simulator is single-threaded, so spans nest strictly and a stack
gives each span its parent.  A span's self time is its duration minus
the part of it that its child spans cover; the self times of every
span under a root therefore add up to the root's duration, which
:func:`ledger` reports as ``coverage``.

Wrapping adds a small fixed cost per call; :func:`span_cost_s`
measures it, so that the share of a traced pass spent in the tracer
itself can be reported beside the layer times.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: Name of the root span around the set-up the traced pass re-runs.
SETUP_ROOT = "setup"
#: Name of the root span around the traced repetition.
REP_ROOT = "rep"


class Tracer:
    """In-memory span recorder (one thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[list] = []
        self.kept: List[Any] = []
        self._clock = clock
        self._open: List[int] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self._clock(), 0.0, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index][2] = self._clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(self, name: str, fn: Callable, keep: bool = False) -> Callable:
        """``fn`` recording one span per call (and its result if ``keep``)."""
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(index)
            if keep:
                self.kept.append(out)
            return out
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Generator function ``fn`` recording one span per item pulled."""
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            while True:
                index = self._begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    self._end(index)
                    self.spans.pop()  # the exhausting pull made no item
                    return
                except BaseException:
                    self._end(index)
                    raise
                self._end(index)
                yield item
        return traced


@dataclass(frozen=True)
class Target:
    """One layer entry point: ``<module>.<owner>.<attr>`` (owner may be empty)."""

    module: str
    owner: str
    attr: str
    layer: str
    generator: bool = False
    keep: bool = False

    @property
    def span_name(self) -> str:
        return f"{self.layer}:{self.attr}"

    def holder(self) -> Any:
        module = importlib.import_module(self.module)
        return getattr(module, self.owner) if self.owner else module


#: Every wrapped entry point, by layer (layer names are module names).
TARGETS: Tuple[Target, ...] = (
    Target("repro.video.synthesis", "SyntheticVideo", "frames",
           "video.synthesis", generator=True),
    Target("repro.core.pipeline", "", "simulate", "core.pipeline", keep=True),
    Target("repro.core.writeback", "WritebackEngine", "process_frame",
           "core.writeback"),
    Target("repro.core.writeback", "", "crc_pair_blocks", "hashing.crc"),
    Target("repro.core.writeback", "", "to_gradient", "core.gradient"),
    Target("repro.core.writeback", "", "compressed_sizes", "compression.dcc"),
    Target("repro.core.mach", "MachRing", "lookup_batch", "core.mach"),
    Target("repro.core.readpath", "DisplayReadEngine", "scan",
           "core.readpath"),
    Target("repro.decoder.vd", "VideoDecoder", "read_traffic", "decoder.vd"),
    Target("repro.core.race_to_sleep", "RaceToSleepGovernor", "plan_wake",
           "core.race_to_sleep"),
    Target("repro.core.race_to_sleep", "AdaptiveRtSGovernor",
           "plan_wake_adaptive", "core.race_to_sleep"),
    Target("repro.thermal", "ThermalModel", "advance_to", "thermal"),
    Target("repro.memory.controller", "MemoryController", "process_window",
           "memory.controller"),
    Target("repro.fleet.surrogate", "", "calibrate", "fleet.surrogate"),
    Target("repro.fleet.population", "PopulationModel", "draw_chunk",
           "fleet.population"),
    Target("repro.fleet.engine", "", "compute_score_stripe", "fleet.engine"),
    Target("repro.fleet.engine", "CohortAggregate", "add_chunk",
           "fleet.engine"),
    Target("repro.fleet.cell", "CellLoadAccumulator", "accumulate",
           "fleet.cell"),
    Target("repro.fleet.cell", "ContentionField", "mean_factor", "fleet.cell"),
    Target("repro.fleet.shard", "MergePlane", "offer_load", "fleet.shard"),
    Target("repro.fleet.shard", "MergePlane", "offer_score", "fleet.shard"),
    Target("repro.fleet.shard", "MergePlane", "finalize_load", "fleet.shard"),
    Target("repro.fleet.shard", "MergePlane", "result", "fleet.shard"),
)


def snapshot() -> Dict[str, Any]:
    """The object each target attribute holds right now."""
    return {f"{t.module}.{t.owner}.{t.attr}": vars(t.holder())[t.attr]
            for t in TARGETS}


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for target in TARGETS:
            holder = target.holder()
            original = vars(holder)[target.attr]
            saved.append((holder, target.attr, original))
            wrapper = (tracer.wrap_generator(target.span_name, original)
                       if target.generator else
                       tracer.wrap(target.span_name, original, target.keep))
            setattr(holder, target.attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [(end - start) - _covered(children.get(i, []), start, end)
            for i, (_name, start, end, _parent) in enumerate(spans)]


def ledger(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Calls, inclusive and self seconds per layer and per entry point.

    Keys are layer names (``core.writeback``) and entry-point span
    names (``core.writeback:process_frame``).  Inclusive time counts
    a span only when no ancestor carries the same key, so recursion
    and nested entry points of one layer are not counted twice.  The
    ``total`` row is the summed duration of the root spans, and its
    ``coverage`` is the share of it that the layer self times explain.
    """
    selfs = self_times(spans)
    rows: Dict[str, Dict[str, float]] = {}
    total = 0.0
    explained = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            total += end - start
        if ":" not in name:
            continue
        explained += selfs[index]
        layer = name.split(":", 1)[0]
        for key in (layer, name):
            row = rows.setdefault(key, {"calls": 0, "incl_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[index]
            if not _has_ancestor(spans, parent, key):
                row["incl_s"] += end - start
    rows["total"] = {"calls": 0, "incl_s": total, "self_s": total,
                     "coverage": explained / total if total else 0.0}
    return rows


def _has_ancestor(spans: Sequence[Sequence], parent: int, key: str) -> bool:
    while parent >= 0:
        name = spans[parent][0]
        if name == key or name.split(":", 1)[0] == key:
            return True
        parent = spans[parent][3]
    return False


def span_cost_s(calls: int = 20_000) -> float:
    """Host seconds one traced call costs more than the bare call."""
    def bare() -> None:
        return None

    traced = Tracer().wrap("cost:bare", bare)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    middle = time.perf_counter()
    for _ in range(calls):
        bare()
    end = time.perf_counter()
    return max((middle - start) - (end - middle), 0.0) / calls


def frame_gaps(spans: Sequence[Sequence]) -> List[float]:
    """Seconds between consecutive frame pulls within each ``simulate``."""
    last: Dict[int, float] = {}
    gaps: List[float] = []
    name = TARGETS[0].span_name
    for span_name, start, _end, parent in spans:
        if span_name != name:
            continue
        if parent in last:
            gaps.append(start - last[parent])
        last[parent] = start
    return gaps


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def rescale(spans: Sequence[Sequence], scales: Sequence[float]) -> List[list]:
    """Spans with root ``i`` and everything under it stretched by ``scales[i]``.

    The host's speed can change between roots, so each root is scaled
    by the probe taken right before it.  The rescaled roots are laid
    end to end from time 0; nesting and parents are unchanged.
    """
    roots = sum(1 for span in spans if span[3] < 0)
    if roots != len(scales):
        raise ValueError(f"{roots} root spans but {len(scales)} scales")
    out: List[list] = []
    root = -1
    origin = offset = base = 0.0
    for name, start, end, parent in spans:
        if parent < 0:
            root += 1
            origin, base = start, offset
            offset += (end - start) * scales[root]
        scale = scales[root]
        out.append([name, base + (start - origin) * scale,
                    base + (end - origin) * scale, parent])
    return out
