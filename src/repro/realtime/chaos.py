"""Chaos-campaign harness: impairment regimes scored into SLOs.

A chaos campaign answers "how does the realtime stack degrade?" by
sweeping a set of *impairment regimes* — piecewise link-rate and
propagation-delay timelines layered onto ``RealtimeConfig`` — across
two session axes:

* the **matrix**: one session per paper workload (Table 1 profiles),
  so regressions are attributable to a content class;
* the **fleet**: sessions drawn from the heterogeneous population
  (:mod:`repro.fleet.population`), each with its own bottleneck rate
  from the drawn access bandwidth, so the SLOs reflect the device and
  bandwidth mix a deployment would see.

Scores land in exact aggregates (integer counters plus the
:mod:`repro.fleet.sketches` summaries).  Every session's config (seed,
link rate, frame count) is a pure function of ``(seed, regime, job)``.

SLOs per ``(regime, cohort)``: deadline-miss fraction, p99 frame
lateness (log-binned histogram quantile), concealed-block fraction,
skipped/frozen/downscaled frame counts, and recovery-energy / total-
energy moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import format_table
from ..config import RealtimeConfig, SimulationConfig
from ..errors import ConfigError, RealtimeError
from ..fleet.population import PopulationModel, PopulationSpec, default_population
from ..fleet.sketches import HistogramSketch, StreamingMoments, hash_u64_array
from ..units import MBPS, to_ms
from ..video import workload
from .session import RealtimeResult, simulate_realtime

#: Hash site for deriving per-session realtime seeds (style of the
#: :mod:`repro.faults` site constants).
_SITE_CHAOS_SEED = 0xC405

#: Impairment timelines repeat/hold within this horizon (s); sessions
#: are far shorter, and the last schedule entry holds beyond it.
_REGIME_HORIZON = 120.0

#: Bottleneck rates drawn from the population are clamped to this band
#: (bytes/s) so a pathological draw cannot stall the campaign.
_MIN_LINK_RATE = 0.5 * MBPS
_MAX_LINK_RATE = 40 * MBPS

#: Energy moments use a finer grid than the fleet default (recovery
#: energy per session is tens of millijoules).
_ENERGY_QUANTUM = 1e-6


def _periodic_dips(period: float, dip_len: float, factor: float
                   ) -> Tuple[Tuple[float, float], ...]:
    """A schedule that dips to ``factor`` for ``dip_len`` every ``period``."""
    entries: List[Tuple[float, float]] = []
    t = period - dip_len
    while t < _REGIME_HORIZON:
        entries.append((t, factor))
        entries.append((t + dip_len, 1.0))
        t += period
    return tuple(entries)


def _periodic_spikes(period: float, spike_len: float, extra: float
                     ) -> Tuple[Tuple[float, float], ...]:
    """A delay schedule adding ``extra`` seconds for ``spike_len``."""
    entries: List[Tuple[float, float]] = []
    t = period - spike_len
    while t < _REGIME_HORIZON:
        entries.append((t, extra))
        entries.append((t + spike_len, 0.0))
        t += period
    return tuple(entries)


@dataclass(frozen=True)
class ChaosRegime:
    """One impairment regime: schedule overlays on ``RealtimeConfig``."""

    key: str
    description: str
    rate_schedule: Tuple[Tuple[float, float], ...] = ()  # (s, multiplier)
    delay_schedule: Tuple[Tuple[float, float], ...] = ()  # (s, extra s)

    def apply(self, rt: RealtimeConfig) -> RealtimeConfig:
        """``rt`` with this regime's impairment timelines layered on."""
        return replace(rt, rate_schedule=self.rate_schedule,
                       delay_schedule=self.delay_schedule)


#: The default campaign: a calm control plus the three impairment
#: families the tentpole names (bursty loss, RTT spikes, cliffs).
CHAOS_REGIMES: Tuple[ChaosRegime, ...] = (
    ChaosRegime("calm", "unimpaired link (control)"),
    ChaosRegime("bursty-loss",
                "0.4 s rate collapses to 30 % every 3 s: queue "
                "overruns arrive in bursts",
                rate_schedule=_periodic_dips(3.0, 0.4, 0.30)),
    ChaosRegime("rtt-spike",
                "+90 ms one-way delay for 1 s every 5 s (bufferbloat "
                "episodes upstream)",
                delay_schedule=_periodic_spikes(5.0, 1.0, 0.090)),
    ChaosRegime("bandwidth-cliff",
                "6 s capacity cliffs to ~32 % every 12 s (cell "
                "handover / backhaul contention)",
                rate_schedule=_periodic_dips(12.0, 6.0, 0.32)),
)


@dataclass
class RegimeSLO:
    """Exact SLO aggregate for one (regime, cohort) cell."""

    regime: str
    cohort: str  # 'matrix' | 'fleet'
    sessions: int = 0
    frames: int = 0
    misses: int = 0
    skipped: int = 0
    frozen: int = 0
    downscaled: int = 0
    lost_blocks: int = 0
    content_blocks: int = 0
    lateness: HistogramSketch = field(default_factory=HistogramSketch)
    recovery_energy: StreamingMoments = field(
        default_factory=lambda: StreamingMoments(quantum=_ENERGY_QUANTUM))
    total_energy: StreamingMoments = field(
        default_factory=lambda: StreamingMoments(quantum=_ENERGY_QUANTUM))

    def add(self, result: RealtimeResult) -> None:
        """Fold one session's result into the aggregate."""
        self.sessions += 1
        self.frames += result.n_frames
        self.misses += int(result.miss.sum())
        self.skipped += result.skipped_frames
        self.frozen += result.frozen_frames
        self.downscaled += result.downscaled_frames
        self.lost_blocks += int(result.lost_blocks.sum())
        self.content_blocks += result.content_blocks
        self.lateness.add_array(result.lateness)
        self.recovery_energy.add_array(np.asarray([result.recovery_energy]))
        self.total_energy.add_array(np.asarray([result.total_energy]))

    @property
    def deadline_miss_fraction(self) -> float:
        return self.misses / max(1, self.frames)

    @property
    def p99_lateness(self) -> float:
        """p99 frame lateness in seconds (sketch quantile)."""
        if self.lateness.total == 0:
            return 0.0
        return self.lateness.quantile(0.99)

    @property
    def concealed_fraction(self) -> float:
        return self.lost_blocks / max(1, self.content_blocks)

    @property
    def degraded_fraction(self) -> float:
        """Frames the ladder touched (downscale/freeze/skip)."""
        return ((self.skipped + self.frozen + self.downscaled)
                / max(1, self.frames))

    def to_jsonable(self) -> Dict[str, object]:
        """Plain-data form."""
        return {
            "regime": self.regime,
            "cohort": self.cohort,
            "sessions": self.sessions,
            "frames": self.frames,
            "misses": self.misses,
            "skipped": self.skipped,
            "frozen": self.frozen,
            "downscaled": self.downscaled,
            "lost_blocks": self.lost_blocks,
            "content_blocks": self.content_blocks,
            "lateness": self.lateness.to_jsonable(),
            "recovery_energy": self.recovery_energy.to_jsonable(),
            "total_energy": self.total_energy.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "RegimeSLO":
        """Inverse of :meth:`to_jsonable`."""
        return cls(
            regime=str(data["regime"]),
            cohort=str(data["cohort"]),
            sessions=int(data["sessions"]),  # type: ignore[arg-type]
            frames=int(data["frames"]),  # type: ignore[arg-type]
            misses=int(data["misses"]),  # type: ignore[arg-type]
            skipped=int(data["skipped"]),  # type: ignore[arg-type]
            frozen=int(data["frozen"]),  # type: ignore[arg-type]
            downscaled=int(data["downscaled"]),  # type: ignore[arg-type]
            lost_blocks=int(data["lost_blocks"]),  # type: ignore[arg-type]
            content_blocks=int(data["content_blocks"]),  # type: ignore[arg-type]
            lateness=HistogramSketch.from_jsonable(
                data["lateness"]),  # type: ignore[arg-type]
            recovery_energy=StreamingMoments.from_jsonable(
                data["recovery_energy"]),  # type: ignore[arg-type]
            total_energy=StreamingMoments.from_jsonable(
                data["total_energy"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class _ChaosJob:
    """One session of the campaign (pure data, shard-independent)."""

    regime_index: int
    cohort: str  # 'matrix' | 'fleet'
    profile_key: str
    link_rate: float  # bytes/s bottleneck for this session
    n_frames: int
    rt_seed: int


@dataclass
class ChaosResult:
    """Campaign outcome: one :class:`RegimeSLO` per (regime, cohort)."""

    seed: int
    n_jobs: int
    regimes: Tuple[str, ...]
    slos: Dict[str, RegimeSLO]  # keyed '<regime>/<cohort>'

    def slo(self, regime: str, cohort: str) -> RegimeSLO:
        """The aggregate for one campaign cell."""
        key = f"{regime}/{cohort}"
        if key not in self.slos:
            raise RealtimeError(f"no SLO cell {key!r} in this campaign")
        return self.slos[key]

    def report(self) -> str:
        """Human-readable SLO table, one row per (regime, cohort)."""
        rows = []
        for key in sorted(self.slos):
            s = self.slos[key]
            rows.append([
                s.regime, s.cohort, s.sessions,
                round(100.0 * s.deadline_miss_fraction, 2),
                round(to_ms(s.p99_lateness), 2),
                round(100.0 * s.concealed_fraction, 3),
                round(100.0 * s.degraded_fraction, 2),
                round(s.recovery_energy.mean, 4),
                round(s.total_energy.mean, 3),
            ])
        return format_table(
            ["regime", "cohort", "sessions", "miss%", "p99 late ms",
             "concealed%", "degraded%", "recovery J", "energy J"],
            rows, title=f"chaos campaign ({self.n_jobs} sessions)")

    def to_jsonable(self) -> Dict[str, object]:
        """Plain-data form."""
        return {
            "seed": self.seed,
            "n_jobs": self.n_jobs,
            "regimes": list(self.regimes),
            "slos": {key: slo.to_jsonable()
                     for key, slo in sorted(self.slos.items())},
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "ChaosResult":
        """Inverse of :meth:`to_jsonable`."""
        slos = {key: RegimeSLO.from_jsonable(value)
                for key, value in data["slos"].items()}  # type: ignore[union-attr]
        return cls(
            seed=int(data["seed"]),  # type: ignore[arg-type]
            n_jobs=int(data["n_jobs"]),  # type: ignore[arg-type]
            regimes=tuple(data["regimes"]),  # type: ignore[arg-type]
            slos=slos,
        )


#: Default matrix axis: one workload per Table-1 content class
#: (TV, timelapse, movie trailer, game capture).
DEFAULT_MATRIX_VIDEOS = ("V1", "V2", "V5", "V12")

#: The fewest frames a fleet session plays: shorter drawn durations are
#: raised to it, and ``fleet_frame_cap`` may not undercut it.
_MIN_FLEET_FRAMES = 60


def _build_jobs(config: SimulationConfig,
                regimes: Sequence[ChaosRegime],
                videos: Sequence[str], sessions: int, n_frames: int,
                fleet_frame_cap: int, seed: int,
                spec: Optional[PopulationSpec]) -> List[_ChaosJob]:
    """The deterministic job list (regime-major, matrix before fleet)."""
    rt = config.realtime
    jobs: List[_ChaosJob] = []
    model: Optional[PopulationModel] = None
    if sessions > 0:
        model = PopulationModel(spec or default_population(), seed=seed)
        chunk = model.draw_chunk(0, sessions)
        n_titles = len(model.spec.titles)
    for r_idx, _regime in enumerate(regimes):
        for v_idx, key in enumerate(videos):
            rt_seed = int(hash_u64_array(
                seed, _SITE_CHAOS_SEED,
                np.asarray([r_idx * 65536 + v_idx], dtype=np.int64))[0]
                >> np.uint64(1))
            jobs.append(_ChaosJob(
                regime_index=r_idx, cohort="matrix", profile_key=key,
                link_rate=rt.link_rate, n_frames=n_frames,
                rt_seed=rt_seed))
        if model is None:
            continue
        for s in range(sessions):
            uid = int(chunk.uid[s])
            rt_seed = int(hash_u64_array(
                seed, _SITE_CHAOS_SEED,
                np.asarray([(r_idx + 1) * (1 << 32) + uid],
                           dtype=np.int64))[0] >> np.uint64(1))
            link_rate = float(np.clip(chunk.bandwidth[s],
                                      _MIN_LINK_RATE, _MAX_LINK_RATE))
            frames = int(chunk.duration_seconds[s] * config.video.fps)
            frames = max(_MIN_FLEET_FRAMES, min(fleet_frame_cap, frames))
            profile_key = videos[int(chunk.title[s]) % len(videos)] \
                if n_titles else videos[0]
            jobs.append(_ChaosJob(
                regime_index=r_idx, cohort="fleet",
                profile_key=profile_key, link_rate=link_rate,
                n_frames=frames, rt_seed=rt_seed))
    return jobs


def _run_job(job: _ChaosJob, config: SimulationConfig,
             regime: ChaosRegime) -> RealtimeResult:
    """Execute one campaign session (pure function of the job)."""
    rt = config.realtime
    start_rate = max(rt.min_rate,
                     min(rt.max_rate, 0.5 * job.link_rate))
    rt_job = replace(regime.apply(rt), link_rate=job.link_rate,
                     start_rate=start_rate, seed=job.rt_seed)
    cfg = replace(config, realtime=rt_job)
    return simulate_realtime(cfg, n_frames=job.n_frames,
                             profile=workload(job.profile_key))


def run_chaos(config: Optional[SimulationConfig] = None,
              regimes: Sequence[ChaosRegime] = CHAOS_REGIMES,
              videos: Sequence[str] = DEFAULT_MATRIX_VIDEOS,
              sessions: int = 32, n_frames: int = 360,
              fleet_frame_cap: int = 480, seed: int = 0,
              spec: Optional[PopulationSpec] = None) -> ChaosResult:
    """Run the chaos campaign.

    ``sessions`` fleet sessions plus one matrix session per ``videos``
    entry are scored under every regime.  ``config.realtime`` supplies
    the base link/recovery parameters (it is force-enabled for the
    campaign); each regime layers its impairment timelines on top.
    Fleet sessions play titles from ``videos``, so ``sessions > 0``
    needs at least one video.  Each fleet session plays its drawn
    duration, clamped to between 60 frames and ``fleet_frame_cap``, so
    with fleet sessions a cap below 60 is a :class:`ConfigError`.
    """
    if sessions < 0:
        raise ConfigError(f"sessions must be >= 0, got {sessions}")
    if sessions > 0 and not videos:
        raise ConfigError("fleet sessions play titles from videos; "
                          "pass at least one video")
    if sessions > 0 and fleet_frame_cap < _MIN_FLEET_FRAMES:
        raise ConfigError(f"fleet_frame_cap must be >= {_MIN_FLEET_FRAMES} "
                          f"(the fleet session floor), got {fleet_frame_cap}")
    cfg = config or SimulationConfig()
    if not cfg.realtime.enabled:
        cfg = replace(cfg, realtime=replace(cfg.realtime, enabled=True))
    jobs = _build_jobs(cfg, regimes, videos, sessions, n_frames,
                       fleet_frame_cap, seed, spec)

    slos: Dict[str, RegimeSLO] = {}
    for regime in regimes:
        for cohort in ("matrix", "fleet"):
            if cohort == "fleet" and sessions == 0:
                continue
            slos[f"{regime.key}/{cohort}"] = RegimeSLO(
                regime=regime.key, cohort=cohort)
    for job in jobs:
        regime = regimes[job.regime_index]
        slos[f"{regime.key}/{job.cohort}"].add(_run_job(job, cfg, regime))
    return ChaosResult(seed=seed, n_jobs=len(jobs),
                       regimes=tuple(r.key for r in regimes),
                       slos=slos)
