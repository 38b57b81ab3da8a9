"""Event-driven segment-download scheduler.

:func:`simulate_delivery` plays the client side of a streaming session
over a bandwidth trace: an ABR policy picks a rung for each segment,
the segment is fetched over the trace (paying a radio promotion when
the modem was idle), the playback buffer fills on arrival and drains
at one content-second per wall-second, and stalls emerge wherever the
buffer runs dry.  Two download modes bracket the radio's energy story:

* **steady** — fetch the next segment as soon as there is room for
  it.  Once the buffer is full this drips one segment per segment
  duration, so the modem's tail timer never expires: the radio sits
  in its high-power tail for the whole session.
* **burst** — fill the buffer back-to-back, then let the modem sleep
  until the buffer drains to a low watermark (BurstLink's recipe —
  the delivery-side mirror of the paper's VD race-to-sleep).

Everything is deterministic: the same ``(segmented, trace, abr,
config)`` inputs produce a bit-identical :class:`DeliveryResult` —
including under fault injection, whose schedule is a pure function of
the fault seed (:class:`repro.faults.FaultPlan`).

When a :class:`~repro.faults.FaultPlan` is supplied, each segment
download becomes a bounded retry loop: an attempt can be lost
mid-transfer, arrive corrupted (checksum failure), or hang until the
per-attempt timeout; every failed attempt still costs radio energy,
the client backs off exponentially, and after
``panic_after_failures`` consecutive failures the ABR panics down to
the lowest rung.  A segment that exhausts ``max_retries`` is
**abandoned**: its content seconds play as a concealed freeze (the
buffer advances, the frames repeat the last good content), which is
quality loss, not a crash.

:class:`DeliveredNetworkModel` adapts a result to the
``frames_available`` / ``time_when_available`` interface of
:class:`repro.core.batching.NetworkModel`, with arrivals expressed in
*playback* time (stall intervals removed), so the decode pipeline's
Race-to-Sleep batcher sees exactly the downloaded-but-undecoded
frames the delivery produced.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from ..config import FaultConfig, NetworkConfig, RadioConfig, VideoConfig
from ..errors import NetworkError
from ..faults import FaultPlan, SegmentFault
from ..video.synthesis import VideoProfile
from .abr import AbrContext, AbrPolicy, make_abr, panic_rung
from .bandwidth import (
    BandwidthTrace,
    constant_trace,
    load_trace,
    lte_trace,
    step_trace,
)
from .buffer import PlaybackBuffer
from .radio import RadioEnergy, RadioModel
from .segments import SegmentedVideo, segment_video

#: Throughput-estimator window (harmonic mean of the last N segments).
_THROUGHPUT_WINDOW = 3


@dataclass(frozen=True)
class ChunkArrival:
    """One downloaded segment."""

    index: int
    rung: int
    size_bytes: int
    n_frames: int
    start: float  # wall time the radio went active for this chunk
    finish: float  # wall time the last byte landed
    playback_position: float  # content seconds consumed at ``finish``
    attempts: int = 1  # download attempts this segment consumed
    abandoned: bool = False  # retries exhausted: plays as a freeze

    @property
    def throughput(self) -> float:
        """Realized transfer rate, bytes/s."""
        span = self.finish - self.start
        return self.size_bytes / span if span > 0 else math.inf


@dataclass(frozen=True)
class DeliveryResult:
    """Outcome of one trace-driven delivery run."""

    chunks: Tuple[ChunkArrival, ...]
    startup_seconds: float  # cold-start wait until the pre-roll filled
    stall_seconds: float  # mid-playback rebuffering (buffer ran dry)
    stall_events: int
    switches: int  # rung changes between consecutive segments
    radio: RadioEnergy
    wall_seconds: float  # wall clock from first request to last frame
    fps: float
    n_frames: int
    mean_rate: float  # duration-weighted mean of the fetched rungs

    # Fault/resilience accounting (all zero on a fault-free run).
    retries: int = 0  # failed download attempts that were retried
    losses: int = 0  # attempts that died mid-transfer
    corruptions: int = 0  # attempts that failed their arrival checksum
    timeouts: int = 0  # attempts that hit the per-attempt timeout
    abandoned_segments: int = 0  # segments that exhausted max_retries
    panic_fetches: int = 0  # attempts forced to rung 0 by panic-down

    @property
    def failed_attempts(self) -> int:
        """Download attempts that did not deliver a segment."""
        return self.losses + self.corruptions + self.timeouts

    def frame_arrival_playback(self) -> np.ndarray:
        """Per-frame availability in *playback* time (stalls removed).

        Frames of a segment that landed when the playhead was at
        ``playback_position`` become decodable at that playback time,
        which is exactly what the decode pipeline's clock measures.
        """
        times = np.empty(self.n_frames, dtype=np.float64)
        cursor = 0
        for chunk in self.chunks:
            times[cursor:cursor + chunk.n_frames] = chunk.playback_position
            cursor += chunk.n_frames
        return times


class DeliveredNetworkModel:
    """``NetworkModel``-compatible availability from a delivery run."""

    def __init__(self, result: DeliveryResult,
                 total_frames: Optional[int] = None) -> None:
        times = result.frame_arrival_playback()
        if total_frames is not None:
            if total_frames > len(times):
                raise NetworkError(
                    f"delivery covered {len(times)} frames but the "
                    f"pipeline needs {total_frames}")
            times = times[:total_frames]
        self._times = times
        self.total_frames = len(times)

    def frames_available(self, time: float) -> int:
        """Frames downloaded by playback-time ``time``."""
        if time < 0:
            return 0
        return int(np.searchsorted(self._times, time + 1e-12,
                                   side="right"))

    def time_when_available(self, count: int) -> float:
        """Earliest playback time at which ``count`` frames are in."""
        count = min(count, self.total_frames)
        if count <= 0:
            return 0.0
        return float(self._times[count - 1])


def _resolve_trace(network: NetworkConfig) -> BandwidthTrace:
    """Build the configured bandwidth trace."""
    kind = network.trace_kind
    if kind == "constant":
        return constant_trace(network.mean_bandwidth)
    if kind == "lte":
        # Cover long sessions; the last sample holds beyond duration.
        return lte_trace(network.mean_bandwidth, duration=600.0,
                         seed=network.trace_seed)
    if kind == "step":
        return step_trace(
            (network.mean_bandwidth * 1.6, network.mean_bandwidth * 0.4,
             network.mean_bandwidth * 1.6, 0.0),
            period=8.0, repeats=80)
    return load_trace(network.trace_path)


def _resolve_abr(network: NetworkConfig) -> AbrPolicy:
    if network.abr == "fixed":
        return make_abr("fixed", rung=network.abr_fixed_rung)
    return make_abr(network.abr)


def _harmonic_mean(samples: Iterable[float]) -> float:
    values = [s for s in samples if s > 0 and not math.isinf(s)]
    if not values:
        return 0.0
    return len(values) / sum(1.0 / v for v in values)


def simulate_delivery(
    segmented: SegmentedVideo,
    trace: BandwidthTrace,
    abr: AbrPolicy,
    radio: RadioConfig,
    download_mode: str = "burst",
    preroll_seconds: float = 2.0,
    capacity_seconds: float = 10.0,
    low_watermark_seconds: float = 3.0,
    faults: Optional[FaultPlan] = None,
) -> DeliveryResult:
    """Run the download/playback loop for one title.

    The loop alternates between segment arrivals and buffer-drain
    waits, advancing playback between events.  Playback starts once
    ``preroll_seconds`` of content are buffered (or the whole title
    is, for titles shorter than the pre-roll) and thereafter drains in
    wall time, stalling when the buffer empties before the next
    segment lands.

    ``faults`` enables lossy-link behaviour (see the module
    docstring); ``faults=None`` follows the fault-free fast path
    bit-for-bit.
    """
    if download_mode not in ("steady", "burst"):
        raise NetworkError(f"unknown download mode: {download_mode!r}")
    max_segment = max(s.duration for s in segmented.segments)
    if capacity_seconds < max_segment:
        raise NetworkError("buffer cannot hold even one segment")
    preroll = min(preroll_seconds, segmented.duration,
                  capacity_seconds - 1e-9)
    low_watermark = max(0.0, min(low_watermark_seconds,
                                 capacity_seconds - max_segment))

    model = RadioModel(radio)
    buffer = PlaybackBuffer(capacity_seconds)
    throughputs = deque(maxlen=_THROUGHPUT_WINDOW)
    chunks = []
    busy = []
    switches = 0
    last_rung = -1
    fault_cfg = faults.config if faults is not None else None
    retries = losses = corruptions = timeouts = 0
    abandoned = panic_fetches = 0

    now = 0.0  # wall clock
    played = 0.0  # content seconds consumed
    playing = False
    startup = 0.0
    last_busy_end = float("-inf")

    def advance(upto: float) -> None:
        """Advance the wall clock, draining the buffer if playing."""
        nonlocal now, played
        if upto <= now:
            return
        if playing:
            remaining = segmented.duration - played - buffer.level
            played += buffer.play(upto - now, remaining)
        now = upto

    for segment in segmented.segments:
        # --- gate the next request on buffer room ---------------------
        if playing and buffer.room < segment.duration:
            if download_mode == "burst":
                # High watermark hit: park the radio until the buffer
                # drains to the low watermark, then burst-refill.
                advance(now + buffer.drain_time_to(low_watermark))
            else:
                # Steady: request as soon as one segment fits, so the
                # modem drips along at the playback rate.
                advance(now + buffer.drain_time_to(
                    capacity_seconds - segment.duration))
        elif not playing and buffer.room < segment.duration:
            raise NetworkError(
                "pre-roll filled the buffer before playback started")

        # --- pick a rung and fetch (retrying under faults) -----------
        attempt = 0
        consecutive = 0
        delivered = None
        max_attempts = 1 + (fault_cfg.max_retries if fault_cfg else 0)
        while attempt < max_attempts:
            context = AbrContext(
                buffer_seconds=buffer.level,
                buffer_capacity=capacity_seconds,
                throughput=_harmonic_mean(throughputs),
                last_rung=last_rung,
                consecutive_failures=consecutive,
            )
            rung = abr.select(segmented.ladder, context)
            if fault_cfg is not None:
                panicked = panic_rung(rung, context,
                                      fault_cfg.panic_after_failures)
                if panicked != rung:
                    panic_fetches += 1
                    rung = panicked
            size = segment.size(rung)

            start = now
            if model.is_idle_at(start, last_busy_end):
                start += radio.promotion_latency
            finish = trace.transfer_time(size, start)
            if math.isinf(finish) and fault_cfg is None:
                # Without a fault plan there is no timeout machinery to
                # bound the attempt, so a dead tail is fatal.  With one,
                # every branch below yields a finite failure_end: the
                # natural-timeout check catches ``inf > timeout_end``
                # (also shielding CORRUPT's full-transfer accounting)
                # and LOSS clamps ``inf * frac`` to the timeout — the
                # attempt times out deterministically instead of
                # depending on where the retry landed in the trace.
                raise NetworkError(
                    f"trace {trace.name!r} has no bandwidth left for "
                    f"segment {segment.index}")

            # Decide whether this attempt fails, and when.  Failed
            # attempts still occupy the radio (retry energy), but no
            # bytes reach the buffer or the throughput estimator.
            failure_end = None
            if fault_cfg is not None:
                fault = faults.segment_fault(segment.index, attempt)
                timeout_end = start + fault_cfg.segment_timeout
                if fault is SegmentFault.TIMEOUT:
                    timeouts += 1
                    failure_end = timeout_end
                elif fault is SegmentFault.LOSS:
                    losses += 1
                    frac = faults.loss_fraction(segment.index, attempt)
                    failure_end = min(start + frac * (finish - start),
                                      timeout_end)
                elif finish > timeout_end:
                    timeouts += 1  # natural timeout: link too slow
                    failure_end = timeout_end
                elif fault is SegmentFault.CORRUPT:
                    corruptions += 1
                    failure_end = finish  # full transfer, bad checksum

            if failure_end is not None:
                advance(failure_end)
                busy.append((start, failure_end))
                last_busy_end = failure_end
                consecutive += 1
                attempt += 1
                if attempt < max_attempts:
                    retries += 1
                    backoff = fault_cfg.retry_backoff * (2 ** (attempt - 1))
                    advance(now + backoff)
                continue

            advance(finish)
            busy.append((start, finish))
            last_busy_end = finish
            throughputs.append(size / max(finish - start, 1e-12))
            buffer.fill(segment.duration)
            chunks.append(ChunkArrival(
                index=segment.index, rung=rung, size_bytes=size,
                n_frames=segment.n_frames, start=start, finish=finish,
                playback_position=played, attempts=attempt + 1))
            if last_rung >= 0 and rung != last_rung:
                switches += 1
            last_rung = rung
            delivered = rung
            break

        if delivered is None:
            # Retries exhausted: abandon the segment.  Its content
            # seconds play as a concealed freeze — the buffer advances
            # so playback (and every later segment) proceeds, but no
            # bytes ever arrive for these frames.
            abandoned += 1
            buffer.fill(segment.duration)
            chunks.append(ChunkArrival(
                index=segment.index, rung=0, size_bytes=0,
                n_frames=segment.n_frames, start=now, finish=now,
                playback_position=played, attempts=max_attempts,
                abandoned=True))

        if not playing and (buffer.level >= preroll - 1e-9
                            or segment.index == segmented.n_segments - 1):
            playing = True
            startup = now

    # Play out whatever is still buffered.
    advance(now + buffer.level)

    mean_rate = (sum(0.0 if c.abandoned else segmented.ladder[c.rung]
                     * segmented.segments[c.index].duration
                     for c in chunks) / segmented.duration)
    radio_energy = model.energy(busy, horizon=now)
    return DeliveryResult(
        chunks=tuple(chunks),
        startup_seconds=startup,
        stall_seconds=buffer.stall_seconds,
        stall_events=buffer.stall_events,
        switches=switches,
        radio=radio_energy,
        wall_seconds=now,
        fps=segmented.fps,
        n_frames=segmented.n_frames,
        mean_rate=mean_rate,
        retries=retries,
        losses=losses,
        corruptions=corruptions,
        timeouts=timeouts,
        abandoned_segments=abandoned,
        panic_fetches=panic_fetches,
    )


def deliver_for_config(
    network: NetworkConfig,
    video: VideoConfig,
    source: Optional[VideoProfile] = None,
    n_frames: Optional[int] = None,
    seed: int = 0,
    faults: Optional[FaultConfig] = None,
) -> DeliveryResult:
    """Convenience wrapper: build trace + segments + ABR from a
    :class:`NetworkConfig` and run :func:`simulate_delivery`.

    ``faults`` (a :class:`~repro.config.FaultConfig`) turns on
    deterministic delivery-side fault injection; inert configs (all
    rates zero) are equivalent to ``None``.
    """
    segmented = segment_video(
        source, video, n_frames=n_frames, ladder=network.ladder,
        segment_seconds=network.segment_seconds, seed=seed)
    plan = FaultPlan.from_config(faults) if faults is not None else None
    return simulate_delivery(
        segmented,
        trace=_resolve_trace(network),
        abr=_resolve_abr(network),
        radio=network.radio,
        download_mode=network.download_mode,
        preroll_seconds=network.preroll_seconds(video.fps),
        capacity_seconds=network.buffer_seconds(video.fps),
        low_watermark_seconds=network.low_watermark_seconds,
        faults=plan,
    )
