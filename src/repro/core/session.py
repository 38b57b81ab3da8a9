"""Viewing sessions: playlists, pauses, seeks, and rebuffering.

The paper evaluates continuous playback of single clips; a real viewing
session strings clips together, pauses (the decoder sleeps deep while
the display keeps repeating the frozen frame), and seeks (the streaming
buffer flushes and must re-fill before playback resumes).  This module
composes :func:`repro.simulate` runs into such a session and accounts
for the inter-segment states:

* **pause** — VD in S3, memory background on, display scanning the
  frozen frame out of the frame buffer every refresh;
* **rebuffer** (after a seek or at a cold start) — same electrical
  state as a pause, plus user-visible stall time while the network
  re-fills the pre-roll.

How stalls are computed depends on ``config.network.mode``:

* ``"chunked"`` (legacy) — a fixed pre-roll arithmetic stub;
* ``"trace"`` — each :class:`Play` runs a trace-driven delivery
  (:mod:`repro.network`): stalls emerge from playback-buffer
  occupancy, frame availability inside the decode pipeline comes from
  the realized arrivals (capping the Race-to-Sleep batch at the
  downloaded-but-undecoded frames), and the modem's burst energy is
  accounted in ``network_energy``.

The session-level result aggregates energy, drops, and stall time —
the three axes a streaming vendor actually balances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Union

from ..config import SchemeConfig, SimulationConfig
from ..errors import ConfigError
from ..video.synthesis import VideoProfile
from .pipeline import simulate
from .results import RunResult


@dataclass(frozen=True)
class Play:
    """Play ``n_frames`` of a source (a profile or trace)."""

    source: Any  # VideoProfile, FrameTrace, or sized DecodedFrame iterable
    n_frames: Optional[int] = None
    seek: bool = False  # a seek precedes this segment: flush + rebuffer


@dataclass(frozen=True)
class Pause:
    """The viewer pauses for ``duration`` seconds."""

    duration: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration >= 0.0):
            raise ConfigError(f"pause duration must be a finite number "
                              f"of seconds >= 0, got {self.duration}")


SessionEvent = Union[Play, Pause]


@dataclass
class SessionResult:
    """Aggregated outcome of one viewing session."""

    playback_energy: float = 0.0  # J
    pause_energy: float = 0.0  # J
    rebuffer_energy: float = 0.0  # J
    network_energy: float = 0.0  # J of modem energy (trace mode only)
    playback_seconds: float = 0.0
    pause_seconds: float = 0.0
    stall_seconds: float = 0.0
    drops: int = 0
    #: Fault-resilience census (all zero on a clean session).
    retries: int = 0
    abandoned_segments: int = 0
    concealed_blocks: int = 0
    fallback_writes: int = 0
    #: Thermal-pressure census (all zero with ThermalConfig disabled).
    throttle_seconds: float = 0.0  # s of playback with boost revoked
    degradation_steps: int = 0  # summed governor ladder levels
    frames_at_nominal: int = 0  # racing frames decoded at the low freq
    segments: List[RunResult] = field(default_factory=list)
    deliveries: List[Any] = field(default_factory=list)

    @property
    def total_energy(self) -> float:
        return (self.playback_energy + self.pause_energy
                + self.rebuffer_energy + self.network_energy)

    @property
    def total_seconds(self) -> float:
        return (self.playback_seconds + self.pause_seconds
                + self.stall_seconds)

    @property
    def average_power(self) -> float:
        return (self.total_energy / self.total_seconds
                if self.total_seconds else 0.0)


class SessionSimulator:
    """Runs a list of session events under one scheme.

    ``panel_self_refresh=True`` models a PSR-capable display (the
    hybrid frame-buffer direction of the paper's display-optimization
    related work): during a pause the panel serves the frozen frame
    from its own buffer, the DC stops scanning DRAM, and the DRAM can
    drop into self-refresh (``DramConfig.self_refresh_fraction`` of
    its background power).
    """

    def __init__(self, scheme: SchemeConfig,
                 config: Optional[SimulationConfig] = None,
                 seed: int = 0, panel_self_refresh: bool = False) -> None:
        self.scheme = scheme
        self.config = config or SimulationConfig()
        self.seed = seed
        self.panel_self_refresh = panel_self_refresh

    # -- idle-state power -------------------------------------------------------

    def _frozen_frame_power(self) -> float:
        """System power while displaying a frozen frame.

        Without PSR: DC panel power + memory background + VD deep
        sleep, plus the dynamic memory cost of re-scanning the frame
        every refresh (the display cannot cache a whole frame).  With
        PSR the rescan traffic disappears and the DRAM self-refreshes.
        """
        cfg = self.config
        video, dram = cfg.video, cfg.dram
        if self.panel_self_refresh:
            return (cfg.display.power
                    + dram.background_power * dram.self_refresh_fraction
                    + cfg.decoder.power_states.s3_power)
        scale = video.scale_to_native
        lines = video.frame_bytes / dram.line_bytes
        rows = video.frame_bytes / dram.row_bytes
        per_refresh = (lines * dram.burst_energy
                       + rows * dram.act_pre_energy) * scale
        return (cfg.display.power
                + dram.background_power
                + cfg.decoder.power_states.s3_power
                + per_refresh * cfg.display.refresh_hz)

    def _rebuffer_seconds(self) -> float:
        """Stall until the pre-roll refills (legacy chunked stub)."""
        network = self.config.network
        chunk_frames = max(1, round(network.chunk_interval
                                    * self.config.video.fps))
        chunks_needed = -(-network.preroll_frames // chunk_frames)
        return chunks_needed * network.chunk_interval

    # -- helpers ----------------------------------------------------------------

    @staticmethod
    def _event_frames(event: Play) -> Optional[int]:
        """Resolve how many frames a Play will run (None = unknown)."""
        if event.n_frames is not None:
            return event.n_frames
        if isinstance(event.source, VideoProfile):
            return event.source.n_frames
        try:
            return len(event.source)
        except TypeError:
            return None

    # -- execution -----------------------------------------------------------------

    def run(self, events: Sequence[SessionEvent]) -> SessionResult:
        """Simulate the whole session."""
        from ..network.delivery import (  # local: keep core importable alone
            DeliveredNetworkModel,
            deliver_for_config,
        )

        result = SessionResult()
        idle_power = self._frozen_frame_power()
        use_delivery = self.config.network.mode == "trace"
        segment_seed = self.seed
        for event in events:
            if isinstance(event, Pause):
                result.pause_seconds += event.duration
                result.pause_energy += event.duration * idle_power
                continue
            if not isinstance(event, Play):
                raise TypeError(f"unknown session event: {event!r}")
            count = self._event_frames(event)
            if count == 0:
                continue  # a zero-length Play is a no-op
            cold_start = event.seek or not result.segments
            network_model = None
            if use_delivery and count is not None:
                profile = (event.source
                           if isinstance(event.source, VideoProfile)
                           else None)
                delivery = deliver_for_config(
                    self.config.network, self.config.video,
                    source=profile, n_frames=count, seed=segment_seed,
                    faults=(self.config.faults
                            if self.config.faults.enabled else None))
                network_model = DeliveredNetworkModel(delivery, count)
                result.deliveries.append(delivery)
                result.network_energy += delivery.radio.total
                result.retries += delivery.retries
                result.abandoned_segments += delivery.abandoned_segments
                # Mid-stream rebuffers always count; the startup wait
                # only on a flush (cold start or seek) — a seamless
                # clip-to-clip transition prefetches across the joint.
                stall = delivery.stall_seconds
                if cold_start:
                    stall += delivery.startup_seconds
                result.stall_seconds += stall
                result.rebuffer_energy += stall * idle_power
            elif cold_start:
                stall = self._rebuffer_seconds()
                result.stall_seconds += stall
                result.rebuffer_energy += stall * idle_power
            run = simulate(event.source, self.scheme,
                           n_frames=event.n_frames, config=self.config,
                           seed=segment_seed, network_model=network_model)
            segment_seed += 1
            result.segments.append(run)
            result.playback_energy += run.energy.total
            result.playback_seconds += run.elapsed
            result.drops += run.drops
            result.concealed_blocks += run.concealed_blocks
            result.fallback_writes += run.fallback_writes
            result.throttle_seconds += run.throttle_seconds
            result.degradation_steps += run.degradation_steps
            result.frames_at_nominal += run.frames_at_nominal
        return result


def simulate_session(events: Sequence[SessionEvent], scheme: SchemeConfig,
                     config: Optional[SimulationConfig] = None,
                     seed: int = 0,
                     panel_self_refresh: bool = False) -> SessionResult:
    """Convenience wrapper around :class:`SessionSimulator`."""
    simulator = SessionSimulator(scheme, config, seed,
                                 panel_self_refresh=panel_self_refresh)
    return simulator.run(events)
