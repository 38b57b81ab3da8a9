"""The streaming population engine: 1M+ sessions in bounded memory.

``run_fleet`` advances every session at *flow* granularity: the
calibrated surrogate (:mod:`repro.fleet.surrogate`) prices decode
energy per frame, and an analytic radio/ABR model derived from
:class:`~repro.config.RadioConfig` prices delivery — no per-frame loop
per user.  Execution is chunked and two-pass:

* **Pass 1** (only with contention): stream the population through the
  :class:`~repro.fleet.cell.CellLoadAccumulator` to build the shared-
  bandwidth throttle field.
* **Pass 2**: stream the population again, score each chunk
  vectorized, and fold the metrics into per-cohort online aggregates
  (:mod:`repro.fleet.sketches`).

Working memory is O(chunk + cells x epochs + cohorts) — independent of
the session count — because the stateless
:class:`~repro.fleet.population.PopulationModel` can re-draw any chunk
on demand instead of keeping sessions alive between passes.

Sharding is a *determinism contract*, not just a speed knob: shards
process disjoint chunk stripes and their partial aggregates merge
exactly (integer state everywhere), so ``shards=1`` and ``shards=64``
produce bit-identical :class:`FleetResult` JSON.  The satellite
hypothesis tests pin that property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import format_table
from ..analysis.ascii_plot import sparkline
from ..config import SimulationConfig
from ..errors import FleetError
from .cell import CellLoadAccumulator, ContentionField
from .population import (PopulationModel, PopulationSpec, SessionChunk,
                         threshold_count)
from .sketches import (HistogramSketch, ReservoirSample, RunSums,
                       StreamingMoments, quantize, run_sums)
from .surrogate import FleetCalibration, calibrate

#: Sessions per streamed chunk.  Fixed (not tunable per run) because
#: per-chunk float reductions inside the sketches are only guaranteed
#: identical for identical chunk boundaries.
SESSION_CHUNK = 8192

#: Per-session metrics tracked by every cohort (canonical units).
METRICS: Tuple[str, ...] = (
    "total_energy", "play_energy", "radio_energy", "stall_seconds",
    "startup_seconds", "throttle_seconds", "contention_factor",
)
#: Metrics that additionally keep a quantile sketch.
HIST_METRICS: Tuple[str, ...] = ("total_energy", "stall_seconds")

#: Effective-bandwidth floor (bytes/s): below this a link is dead air,
#: and unbounded stall times would swamp the quantized aggregates.
BANDWIDTH_FLOOR = 10_000.0


@dataclass
class CohortAggregate:
    """Bounded-memory summary of one cohort's session metrics."""

    key: str
    moments: Dict[str, StreamingMoments]
    hists: Dict[str, HistogramSketch]
    sample: ReservoirSample

    @classmethod
    def empty(cls, key: str, seed: int) -> "CohortAggregate":
        """A fresh, zero-session aggregate for ``key``."""
        return cls(
            key=key,
            moments={m: StreamingMoments() for m in METRICS},
            hists={m: HistogramSketch() for m in HIST_METRICS},
            sample=ReservoirSample(seed=seed),
        )

    @property
    def count(self) -> int:
        return self.moments["total_energy"].count

    def add_chunk(self, chunk: "ChunkReduction", cohort: int) -> None:
        """Fold cohort ``cohort``'s share of a grouped chunk reduction in."""
        run = int(chunk.run_of[cohort])
        if run < 0:
            return
        count = int(chunk.run_sizes[run])
        for name, sums in zip(METRICS, chunk.sums):
            self.moments[name].add_sums(
                count, sums.q_sum[run], sums.sq_hi[run], sums.sq_lo[run],
                sums.q_min[run], sums.q_max[run])
        for row, name in enumerate(HIST_METRICS):
            self.hists[name].counts += chunk.hist_counts[row, cohort]
        lo, hi = chunk.candidate_bounds[cohort:cohort + 2]
        self.sample.admit(chunk.priorities[lo:hi], chunk.uids[lo:hi],
                          chunk.totals[lo:hi])

    def merge(self, other: "CohortAggregate") -> "CohortAggregate":
        """Exact merge of another shard's partial for the same cohort."""
        if self.key != other.key:
            raise FleetError(
                f"cannot merge cohort {other.key!r} into {self.key!r}")
        return CohortAggregate(
            key=self.key,
            moments={m: self.moments[m].merge(other.moments[m])
                     for m in METRICS},
            hists={m: self.hists[m].merge(other.hists[m])
                   for m in HIST_METRICS},
            sample=self.sample.merge(other.sample),
        )

    def to_jsonable(self) -> Dict[str, object]:
        """Lossless plain-data form."""
        return {
            "key": self.key,
            "moments": {m: s.to_jsonable()
                        for m, s in self.moments.items()},
            "hists": {m: h.to_jsonable() for m, h in self.hists.items()},
            "sample": self.sample.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "CohortAggregate":
        """Inverse of :meth:`to_jsonable`."""
        return cls(
            key=str(data["key"]),
            moments={m: StreamingMoments.from_jsonable(s)
                     for m, s in data["moments"].items()},  # type: ignore[union-attr]
            hists={m: HistogramSketch.from_jsonable(h)
                   for m, h in data["hists"].items()},  # type: ignore[union-attr]
            sample=ReservoirSample.from_jsonable(
                data["sample"]),  # type: ignore[arg-type]
        )


@dataclass
class FleetResult:
    """Cohort distributions for one fleet run.

    Everything here is shard-layout independent by construction; two
    runs of the same ``(spec, n_sessions, seed, contention)`` agree on
    :meth:`to_jsonable` bit-for-bit whatever ``shards`` was.
    """

    spec_fingerprint: str
    n_sessions: int
    seed: int
    contention: bool
    cohorts: Dict[str, CohortAggregate]
    saturated_cell_epochs: int
    peak_cell_load: float  # bytes/s, worst single (cell, epoch)

    def cohort(self, key: str) -> CohortAggregate:
        """Look up one cohort ("fleet", "device:...", ...)."""
        try:
            return self.cohorts[key]
        except KeyError:
            raise FleetError(f"unknown cohort {key!r}; known: "
                             f"{sorted(self.cohorts)}") from None

    def to_jsonable(self) -> Dict[str, object]:
        """Lossless plain-data form (the ``--json`` report)."""
        return {
            "spec_fingerprint": self.spec_fingerprint,
            "n_sessions": self.n_sessions,
            "seed": self.seed,
            "contention": self.contention,
            "cohorts": {key: cohort.to_jsonable()
                        for key, cohort in sorted(self.cohorts.items())},
            "saturated_cell_epochs": self.saturated_cell_epochs,
            "peak_cell_load": self.peak_cell_load,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "FleetResult":
        """Inverse of :meth:`to_jsonable`."""
        return cls(
            spec_fingerprint=str(data["spec_fingerprint"]),
            n_sessions=int(data["n_sessions"]),  # type: ignore[arg-type]
            seed=int(data["seed"]),  # type: ignore[arg-type]
            contention=bool(data["contention"]),
            cohorts={key: CohortAggregate.from_jsonable(cohort)
                     for key, cohort
                     in data["cohorts"].items()},  # type: ignore[union-attr]
            saturated_cell_epochs=int(
                data["saturated_cell_epochs"]),  # type: ignore[arg-type]
            peak_cell_load=float(
                data["peak_cell_load"]),  # type: ignore[arg-type]
        )

    def report(self) -> str:
        """Human-readable cohort tables plus an energy sparkline."""
        rows: List[List[object]] = []
        for key in sorted(self.cohorts):
            cohort = self.cohorts[key]
            energy = cohort.moments["total_energy"]
            stall = cohort.moments["stall_seconds"]
            startup = cohort.moments["startup_seconds"]
            factor = cohort.moments["contention_factor"]
            rows.append([
                key, cohort.count,
                energy.mean, energy.std,
                cohort.hists["total_energy"].quantile(0.5),
                cohort.hists["total_energy"].quantile(0.95),
                stall.mean,
                cohort.hists["stall_seconds"].quantile(0.95),
                startup.mean,
                factor.mean,
            ])
        lines = [format_table(
            ["cohort", "sessions", "mean J", "std J", "p50 J",
             "p95 J", "stall s", "p95 stall", "startup s", "bw factor"],
            rows,
            title=f"fleet of {self.n_sessions} sessions "
                  f"(spec {self.spec_fingerprint}, seed {self.seed}, "
                  f"contention={'on' if self.contention else 'off'})")]
        hist = self.cohorts["fleet"].hists["total_energy"]
        span = hist.nonzero_span()
        if span:
            first, last = span
            counts = hist.counts[1 + first:2 + last].astype(np.float64)
            lo = 10.0 ** (hist.lo_exp + first / hist.bins_per_decade)
            hi = 10.0 ** (hist.lo_exp + (last + 1) / hist.bins_per_decade)
            lines.append("\nsession energy distribution "
                         f"[{lo:.3g} J .. {hi:.3g} J, log scale]:")
            lines.append("  " + sparkline(counts))
        if self.contention:
            lines.append(f"\ncontention: {self.saturated_cell_epochs} "
                         "saturated cell-epochs, peak offered load "
                         f"{self.peak_cell_load:.3g} bytes/s per cell")
        return "\n".join(lines)


@dataclass(frozen=True)
class ChunkReduction:
    """One chunk's metrics reduced for every cohort in one grouped pass.

    Cohorts are indexed in :func:`cohort_keys` order.  ``sums`` holds
    one :class:`RunSums` per :data:`METRICS` entry, with one entry per
    run: the cohorts present in the chunk, ascending, located by
    ``run_of`` (-1 for an absent cohort).  Reservoir candidates are
    grouped by cohort, in session order; cohort ``c``'s lie in
    ``candidate_bounds[c]:candidate_bounds[c + 1]``.
    """

    run_of: np.ndarray
    run_sizes: np.ndarray
    sums: List[RunSums]  # fields converted to lists of Python ints
    hist_counts: np.ndarray  # (len(HIST_METRICS), cohorts, slots)
    candidate_bounds: np.ndarray
    priorities: np.ndarray
    uids: np.ndarray
    totals: np.ndarray


def _reduce_chunk(template: CohortAggregate, spec: PopulationSpec,
                  chunk: SessionChunk, metrics: Dict[str, np.ndarray],
                  bound: Optional[int]) -> ChunkReduction:
    """Quantize, bin and hash each session once, then reduce every
    cohort over its run of a single sort of the cohort memberships.

    ``template`` supplies the sketch parameters every cohort shares;
    ``bound`` is the largest kept reservoir priority across cohorts
    once all of them are full (None before), and only sessions at or
    below it are offered to the reservoirs.
    """
    n, uids = chunk.size, chunk.uid
    # Each session's cohort in each dimension: fleet, device, region
    # and title, indexed in cohort_keys order.
    n_device, n_region = len(spec.device_classes), len(spec.regions)
    n_cohorts = 1 + n_device + n_region + len(spec.titles)
    ids = np.empty((4, n), dtype=np.min_scalar_type(n_cohorts))
    ids[0] = 0
    ids[1] = 1 + chunk.device
    ids[2] = 1 + n_device + chunk.region
    ids[3] = 1 + n_device + n_region + chunk.title
    flat_ids = ids.ravel()
    # One stable sort (a radix sort on the small unsigned ids) lays
    # each cohort out as one run, in session order.
    members = np.argsort(flat_ids, kind="stable") % n
    sizes = np.bincount(flat_ids, minlength=n_cohorts)
    present = np.flatnonzero(sizes)
    run_of = np.full(n_cohorts, -1, dtype=np.int64)
    run_of[present] = np.arange(present.size)
    starts = (np.cumsum(sizes) - sizes)[present]

    sums = []
    for name in METRICS:
        q = quantize(metrics[name], template.moments[name].quantum)
        sums.append(RunSums(*(column.tolist()
                              for column in run_sums(q[members], starts))))

    n_slots = template.hists[HIST_METRICS[0]].counts.size
    cohort_slot = flat_ids.astype(np.int64) * n_slots
    hist_counts = np.stack([
        np.bincount(cohort_slot + np.tile(
            template.hists[name].slots(metrics[name]), 4),
            minlength=n_cohorts * n_slots).reshape(n_cohorts, n_slots)
        for name in HIST_METRICS])

    priorities = template.sample.priorities_of(uids)
    # Inclusive, so a (priority, uid) tie with a kept element still
    # reaches the reservoir's own ordering.
    offered = (np.arange(n) if bound is None
               else np.flatnonzero(priorities <= np.uint64(bound)))
    cand_ids = ids[:, offered].ravel()
    cand = offered[np.argsort(cand_ids, kind="stable") % offered.size]
    bounds = np.zeros(n_cohorts + 1, dtype=np.int64)
    np.cumsum(np.bincount(cand_ids, minlength=n_cohorts), out=bounds[1:])
    return ChunkReduction(
        run_of=run_of, run_sizes=sizes[present], sums=sums,
        hist_counts=hist_counts, candidate_bounds=bounds,
        priorities=priorities[cand], uids=uids[cand],
        totals=metrics["total_energy"][cand])


def fold_chunk(partial: Dict[str, CohortAggregate], spec: PopulationSpec,
               chunk: SessionChunk, metrics: Dict[str, np.ndarray]) -> None:
    """Fold one scored chunk into every cohort of a stripe partial.

    Every cohort of ``partial`` must share the fleet cohort's sketch
    parameters, as :meth:`CohortAggregate.empty` builds them.
    """
    keys = cohort_keys(spec)
    bounds = [partial[key].sample.admission_bound() for key in keys]
    bound = None if None in bounds else max(bounds)
    reduction = _reduce_chunk(partial["fleet"], spec, chunk, metrics, bound)
    for cohort, key in enumerate(keys):
        partial[key].add_chunk(reduction, cohort)


def _score_chunk(spec: PopulationSpec, chunk: SessionChunk,
                 factor: np.ndarray,
                 tables: Dict[str, np.ndarray],
                 fps: float) -> Dict[str, np.ndarray]:
    """Vectorized flow-level session model for one chunk.

    Sessions pick the highest ladder rung that fits ``abr_safety`` of
    their (contention-throttled) bandwidth; below the bottom rung the
    deficit surfaces as mid-stream stalls.  The radio follows the
    burst-download cycle implied by the buffer/watermark geometry:
    races at ``active_power``, rides the tail, and demotes to idle
    with a paid promotion when the drain gap is long enough.
    """
    radio = spec.radio
    ladder = np.asarray(spec.ladder, dtype=np.float64)
    duration = chunk.duration_seconds
    bw_eff = np.maximum(chunk.bandwidth * factor, BANDWIDTH_FLOOR)

    # Rungs above the bottom one that fit: the highest fitting rung,
    # or the bottom rung when none fits.
    rung = threshold_count(spec.abr_safety * bw_eff, ladder[1:])
    rate = ladder[rung]

    # Mid-stream stalls: playing 1 s of bottom-rung content over a
    # slower link takes ladder[0]/bw_eff wall seconds.
    stall = duration * np.maximum(ladder[0] / bw_eff - 1.0, 0.0)
    startup = (radio.promotion_latency
               + spec.preroll_seconds * rate / bw_eff)

    frames = np.rint(duration * fps)
    epf = tables["energy_per_frame"][chunk.device, chunk.title]
    play_energy = epf * frames
    stall_energy = stall * tables["stall_power"][chunk.device]
    throttle = (tables["throttle_fraction"][chunk.device, chunk.title]
                * duration)

    # Burst-mode radio: refill cycles sized by the buffer span.
    total_bytes = duration * rate
    active_seconds = total_bytes / bw_eff
    cycle_span = max(spec.buffer_seconds - spec.watermark_seconds,
                     spec.epoch_seconds)
    n_cycles = np.ceil(duration / cycle_span)
    burst_wall = cycle_span * rate / bw_eff
    gap = np.maximum(cycle_span - burst_wall, 0.0)
    demotes = gap > (radio.tail_seconds + radio.promotion_latency)
    cycle_overhead = np.where(
        demotes,
        radio.tail_seconds * radio.tail_power
        + (gap - radio.tail_seconds) * radio.idle_power
        + radio.promotion_energy,
        gap * radio.tail_power)
    radio_energy = (active_seconds * radio.active_power
                    + n_cycles * cycle_overhead
                    + radio.promotion_energy)

    total = play_energy + stall_energy + radio_energy
    return {
        "total_energy": total,
        "play_energy": play_energy,
        "radio_energy": radio_energy,
        "stall_seconds": stall,
        "startup_seconds": startup,
        "throttle_seconds": throttle,
        "contention_factor": factor,
    }


def _chunk_bounds(n_sessions: int) -> List[Tuple[int, int]]:
    """(start, count) per chunk, fixed SESSION_CHUNK stride."""
    bounds = []
    for start in range(0, n_sessions, SESSION_CHUNK):
        bounds.append((start, min(SESSION_CHUNK, n_sessions - start)))
    return bounds


def _stripes(n_chunks: int, shards: int) -> List[range]:
    """Contiguous chunk stripes, one per shard (some may be empty)."""
    base, extra = divmod(n_chunks, shards)
    stripes = []
    lo = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        stripes.append(range(lo, lo + size))
        lo += size
    return stripes


def cohort_keys(spec: PopulationSpec) -> List[str]:
    """Canonical cohort-key order for a spec.

    Every stripe partial — serial or shipped home by a shard worker —
    must carry exactly these keys; the merge plane enforces it.
    """
    return (["fleet"]
            + [f"device:{d.name}" for d in spec.device_classes]
            + [f"region:{r.name}" for r in spec.regions]
            + [f"title:{t}" for t in spec.titles])


def compute_load_stripe(spec: PopulationSpec, model: PopulationModel,
                        bounds: Sequence[Tuple[int, int]],
                        chunk_ids: Sequence[int]) -> CellLoadAccumulator:
    """Pass-1 partial for one stripe: accumulated cell demand.

    Pure in ``(spec, seed, chunk_ids)`` — the population model re-draws
    chunks on demand, so any process (the serial fold, a shard worker,
    a speculative re-execution) computes the identical partial.
    """
    accumulator = CellLoadAccumulator(spec)
    for chunk_index in chunk_ids:
        start, count = bounds[chunk_index]
        accumulator.accumulate(model.draw_chunk(start, count))
    return accumulator


def compute_score_stripe(spec: PopulationSpec, model: PopulationModel,
                         bounds: Sequence[Tuple[int, int]],
                         chunk_ids: Sequence[int],
                         field: Optional[ContentionField],
                         tables: Dict[str, np.ndarray], fps: float,
                         seed: int) -> Dict[str, CohortAggregate]:
    """Pass-2 partial for one stripe: per-cohort aggregates.

    Same purity contract as :func:`compute_load_stripe`; ``field`` is
    the *globally finalized* contention field (never a partial one),
    so the throttle factors a stripe reads are shard-independent.
    """
    partial = {key: CohortAggregate.empty(key, seed)
               for key in cohort_keys(spec)}
    for chunk_index in chunk_ids:
        start, count = bounds[chunk_index]
        chunk = model.draw_chunk(start, count)
        factor = (field.mean_factor(chunk) if field is not None
                  else np.ones(count, dtype=np.float64))
        fold_chunk(partial, spec, chunk,
                   _score_chunk(spec, chunk, factor, tables, fps))
    return partial


def run_fleet(spec: PopulationSpec, n_sessions: int, seed: int = 0,
              shards: int = 1, contention: bool = True,
              calibration: Optional[FleetCalibration] = None,
              config: Optional[SimulationConfig] = None,
              progress: Optional[Callable[[str], None]] = None
              ) -> FleetResult:
    """Simulate ``n_sessions`` drawn from ``spec`` in bounded memory.

    Args:
        spec: the declarative population.
        n_sessions: how many sessions to draw and score.
        seed: population seed (calibration has its own, in the spec).
        shards: how many chunk stripes to fold independently before
            the exact merge — the result is bit-identical for any
            value, so use whatever matches the execution environment.
        contention: share cell bandwidth (True) or give every session
            its private drawn trace (False).
        calibration: a pre-built coefficient table (e.g. from
            :func:`~repro.fleet.surrogate.load_or_calibrate`); must
            match ``spec``'s fingerprint.  Calibrated on the fly when
            omitted.
        config: base :class:`SimulationConfig` for on-the-fly
            calibration.
        progress: optional callable for status lines.

    Returns:
        A :class:`FleetResult` of per-cohort online aggregates.
    """
    if n_sessions < 1:
        raise FleetError("need at least one session")
    if shards < 1:
        raise FleetError("need at least one shard")
    if calibration is None:
        calibration = calibrate(spec, config=config, progress=progress)
    if calibration.fingerprint != spec.fingerprint():
        raise FleetError(
            "calibration fingerprint does not match the population "
            "spec — rebuild it with load_or_calibrate/calibrate")
    tables = calibration.coefficient_arrays(spec)
    fps = (config or SimulationConfig()).video.fps
    model = PopulationModel(spec, seed)
    bounds = _chunk_bounds(n_sessions)
    stripes = _stripes(len(bounds), shards)

    # The serial fold goes through the same merge plane the supervised
    # shard service uses, so there is exactly one fold code path to
    # audit for the bit-identity contract.  Deferred import: shard.py
    # imports this module at top level.
    from .shard import MergePlane
    plane = MergePlane(spec, seed)

    field: Optional[ContentionField] = None
    if contention:
        if progress is not None:
            progress(f"pass 1/2: cell load over {len(bounds)} chunks")
        for stripe_id, stripe in enumerate(stripes):
            plane.offer_load(
                stripe_id,
                compute_load_stripe(spec, model, bounds, stripe))
        field = plane.finalize_load()

    if progress is not None:
        progress(f"pass 2/2: scoring {n_sessions} sessions "
                 f"({shards} shard{'s' if shards > 1 else ''})")
    for stripe_id, stripe in enumerate(stripes):
        plane.offer_score(
            stripe_id,
            compute_score_stripe(spec, model, bounds, stripe, field,
                                 tables, fps, seed))
    return plane.result(n_sessions=n_sessions, contention=contention)
