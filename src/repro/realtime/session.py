"""The realtime per-frame loop and its result summary.

One frame of the loop, at capture time ``t = i / fps`` with deadline
``t + latency_budget``:

1. **Ladder** — :class:`repro.core.race_to_sleep.DeadlineLadder`
   predicts, from the live backlog, whether the full-size frame can
   arrive by the deadline, and degrades least-first (downscale →
   freeze → skip) only as far as the link state warrants.
2. **Encode** — the congestion controller's rate sets the target
   frame bytes (I-frames cost more, deterministic per-frame jitter
   from the splitmix64 mixer), which packetise at ``mtu_bytes``.
3. **Recovery choice** — ``adaptive`` picks FEC when a retransmission
   round trip would overshoot the deadline, else retransmission;
   ``fec`` / ``retx`` force the mode.
4. **Send** — packets offer to the :class:`BottleneckLink`; injected
   :class:`~repro.faults.FaultPlan` erasures compose on top of
   whatever the queue drops emergently.
5. **Recover** — XOR parity (:func:`repro.realtime.fec.apply_fec`) or
   bounded retransmissions with RTT-scaled backoff.  Packets still
   missing afterwards map to macroblock spans that flow into the
   existing concealment machinery.
6. **Account** — lateness vs. the deadline, race-to-sleep decode
   energy (decode at boost, then :func:`repro.decoder.power.plan_slack`
   sleeps the slack), radio airtime, and recovery byte overhead.

:func:`realtime_playback` then closes the loop with the paper
pipeline: the realtime arrivals become the pipeline's frame source and
the unrecovered blocks a concealment overlay, so recovery failures are
healed by the *same* ``conceal_blocks`` path (and charged the same
extra reference reads) as injected bit errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # import cycle: core.pipeline is imported lazily
    from ..core.results import RunResult

import numpy as np

from ..config import SchemeConfig, SimulationConfig
from ..core.race_to_sleep import DeadlineLadder
from ..decoder.power import PowerState, PowerTracker, plan_slack
from ..errors import ConfigError, RealtimeError
from ..faults import FaultPlan, hash_u01
from ..video.synthesis import VideoProfile
from .congestion import DelayLossController
from .fec import apply_fec, parity_count
from .link import BottleneckLink

#: Hash-site discriminator for per-frame encode-size jitter.
_SITE_FRAME_SIZE = 0xF5A7

#: Encoded-size multipliers by frame type; chosen so a default GOP of
#: 30 (one I, twenty-nine P) averages ~1.0x the controller's target.
_I_FRAME_FACTOR = 2.8
_P_FRAME_FACTOR = 0.93

#: Half-width of the uniform per-frame size jitter (0.75x .. 1.25x).
_SIZE_JITTER = 0.25

#: Retransmissions stop being attempted this many latency budgets past
#: the deadline (bounded effort; the frame is long lost by then).
_RETX_HORIZON_BUDGETS = 1.0


@dataclass
class RealtimeResult:
    """Per-frame timelines and session totals of one realtime run.

    ``completion[i]`` is the time frame ``i``'s last needed packet
    arrived (``math.inf`` when nothing arrived or the frame was
    skipped); ``step[i]`` is the deadline-ladder step (0 nominal,
    1 downscale, 2 freeze, 3 skip); ``lost_blocks[i]`` counts
    macroblocks that recovery could not restore.
    """

    n_frames: int
    fps: float
    latency_budget: float  # s capture-to-delivery deadline
    blocks_per_frame: int

    completion: np.ndarray  # s per-frame arrival, inf if undelivered
    step: np.ndarray  # int8 ladder step per frame
    miss: np.ndarray  # bool deadline miss per frame
    lost_blocks: np.ndarray  # int32 unrecovered blocks per frame
    send_rate: np.ndarray  # float64 controller rate per frame, bytes/s
    queue_delay: np.ndarray  # float64 mean queueing delay per frame, s

    data_bytes: int = 0
    parity_bytes: int = 0
    retx_bytes: int = 0
    packets_sent: int = 0
    overflow_drops: int = 0
    red_drops: int = 0
    injected_drops: int = 0
    fec_frames: int = 0
    retx_frames: int = 0
    downscaled_frames: int = 0
    frozen_frames: int = 0
    skipped_frames: int = 0
    degradation_steps: int = 0

    decode_energy: float = 0.0  # J active decode
    sleep_energy: float = 0.0  # J slack (sleep + idle + transitions)
    radio_energy: float = 0.0  # J modem active + tail
    recovery_energy: float = 0.0  # J modem airtime of parity + retx

    #: Unrecovered-block spans per frame (block index ranges), the raw
    #: material of :meth:`block_overlay`.  Not serialized.
    lost_spans: Dict[int, List[Tuple[int, int]]] = field(
        default_factory=dict, repr=False)

    # -- derived SLOs ------------------------------------------------------

    @property
    def delivered(self) -> np.ndarray:
        """Frames whose content (possibly degraded) arrived."""
        return np.isfinite(self.completion)

    @property
    def deadline(self) -> np.ndarray:
        """Per-frame delivery deadlines."""
        return (np.arange(self.n_frames) / self.fps) + self.latency_budget

    @property
    def lateness(self) -> np.ndarray:
        """Per-delivered-frame lateness in seconds (0 = on time)."""
        delivered = self.delivered
        return np.maximum(
            0.0, self.completion[delivered] - self.deadline[delivered])

    def p99_lateness(self) -> float:
        """99th-percentile frame lateness (s) over delivered frames."""
        lateness = self.lateness
        if lateness.size == 0:
            return 0.0
        return float(np.quantile(lateness, 0.99))

    @property
    def deadline_miss_fraction(self) -> float:
        return float(self.miss.sum()) / max(1, self.n_frames)

    @property
    def content_blocks(self) -> int:
        """Blocks carried by nominal + downscaled frames."""
        content_frames = int((self.step <= 1).sum())
        return content_frames * self.blocks_per_frame

    @property
    def concealed_fraction(self) -> float:
        return int(self.lost_blocks.sum()) / max(1, self.content_blocks)

    @property
    def byte_overhead(self) -> float:
        """Recovery bytes (parity + retx) per data byte."""
        return (self.parity_bytes + self.retx_bytes) / max(1, self.data_bytes)

    @property
    def total_energy(self) -> float:
        return (self.decode_energy + self.sleep_energy + self.radio_energy)

    @property
    def duration(self) -> float:
        """Session wall length in seconds."""
        return self.n_frames / self.fps

    # -- pipeline bridge ---------------------------------------------------

    def block_overlay(self) -> Dict[int, np.ndarray]:
        """Unrecovered blocks per frame, for the pipeline's concealment.

        Frames the ladder froze or skipped lose *all* their blocks (the
        display repeats the previous frame wholesale); content frames
        lose the spans their unrecovered packets carried.
        """
        overlay: Dict[int, np.ndarray] = {}
        for i, spans in self.lost_spans.items():
            indices = np.concatenate(
                [np.arange(lo, hi, dtype=np.int64) for lo, hi in spans])
            overlay[i] = np.unique(indices)
        for i in np.flatnonzero(self.step >= 2):
            overlay[int(i)] = np.arange(self.blocks_per_frame,
                                        dtype=np.int64)
        return overlay

    def availability_times(self) -> np.ndarray:
        """Monotone per-frame availability for the pipeline frame source.

        Undelivered frames become "available" at their deadline — the
        pipeline then decodes a fully-concealed repeat instead of
        stalling forever on content that will never arrive.
        """
        times = np.where(self.delivered, self.completion, self.deadline)
        return np.maximum.accumulate(times)

    # -- serialization -----------------------------------------------------

    def to_jsonable(self) -> Dict[str, object]:
        """Plain-data form (derived SLOs recomputable on load)."""
        return {
            "n_frames": self.n_frames,
            "fps": self.fps,
            "latency_budget": self.latency_budget,
            "blocks_per_frame": self.blocks_per_frame,
            "completion": [None if math.isinf(c) else float(c)
                           for c in self.completion],
            "step": [int(s) for s in self.step],
            "miss": [bool(m) for m in self.miss],
            "lost_blocks": [int(b) for b in self.lost_blocks],
            "send_rate": [float(r) for r in self.send_rate],
            "queue_delay": [None if math.isinf(q) else float(q)
                            for q in self.queue_delay],
            "data_bytes": self.data_bytes,
            "parity_bytes": self.parity_bytes,
            "retx_bytes": self.retx_bytes,
            "packets_sent": self.packets_sent,
            "overflow_drops": self.overflow_drops,
            "red_drops": self.red_drops,
            "injected_drops": self.injected_drops,
            "fec_frames": self.fec_frames,
            "retx_frames": self.retx_frames,
            "downscaled_frames": self.downscaled_frames,
            "frozen_frames": self.frozen_frames,
            "skipped_frames": self.skipped_frames,
            "degradation_steps": self.degradation_steps,
            "decode_energy": self.decode_energy,
            "sleep_energy": self.sleep_energy,
            "radio_energy": self.radio_energy,
            "recovery_energy": self.recovery_energy,
            "lost_spans": {str(i): [[lo, hi] for lo, hi in spans]
                           for i, spans in self.lost_spans.items()},
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "RealtimeResult":
        """Inverse of :meth:`to_jsonable`."""
        def _floats(values: object, missing: float) -> np.ndarray:
            return np.asarray(
                [missing if v is None else float(v)
                 for v in values],  # type: ignore[union-attr]
                dtype=np.float64)

        return cls(
            n_frames=int(data["n_frames"]),  # type: ignore[arg-type]
            fps=float(data["fps"]),  # type: ignore[arg-type]
            latency_budget=float(data["latency_budget"]),  # type: ignore[arg-type]
            blocks_per_frame=int(data["blocks_per_frame"]),  # type: ignore[arg-type]
            completion=_floats(data["completion"], math.inf),
            step=np.asarray(data["step"], dtype=np.int8),
            miss=np.asarray(data["miss"], dtype=bool),
            lost_blocks=np.asarray(data["lost_blocks"], dtype=np.int32),
            send_rate=np.asarray(data["send_rate"], dtype=np.float64),
            queue_delay=_floats(data["queue_delay"], math.inf),
            data_bytes=int(data["data_bytes"]),  # type: ignore[arg-type]
            parity_bytes=int(data["parity_bytes"]),  # type: ignore[arg-type]
            retx_bytes=int(data["retx_bytes"]),  # type: ignore[arg-type]
            packets_sent=int(data["packets_sent"]),  # type: ignore[arg-type]
            overflow_drops=int(data["overflow_drops"]),  # type: ignore[arg-type]
            red_drops=int(data["red_drops"]),  # type: ignore[arg-type]
            injected_drops=int(data["injected_drops"]),  # type: ignore[arg-type]
            fec_frames=int(data["fec_frames"]),  # type: ignore[arg-type]
            retx_frames=int(data["retx_frames"]),  # type: ignore[arg-type]
            downscaled_frames=int(data["downscaled_frames"]),  # type: ignore[arg-type]
            frozen_frames=int(data["frozen_frames"]),  # type: ignore[arg-type]
            skipped_frames=int(data["skipped_frames"]),  # type: ignore[arg-type]
            degradation_steps=int(data["degradation_steps"]),  # type: ignore[arg-type]
            decode_energy=float(data["decode_energy"]),  # type: ignore[arg-type]
            sleep_energy=float(data["sleep_energy"]),  # type: ignore[arg-type]
            radio_energy=float(data["radio_energy"]),  # type: ignore[arg-type]
            recovery_energy=float(data["recovery_energy"]),  # type: ignore[arg-type]
            lost_spans={int(i): [(int(lo), int(hi)) for lo, hi in spans]
                        for i, spans in
                        data["lost_spans"].items()},  # type: ignore[union-attr]
        )


class RealtimeFrameSource:
    """Adapts realtime arrivals to the pipeline's ``FrameSource``."""

    def __init__(self, times: np.ndarray) -> None:
        self._times = times

    def frames_available(self, time: float) -> int:
        return int(np.searchsorted(self._times, time, side="right"))

    def time_when_available(self, count: int) -> float:
        if count <= 0:
            return 0.0
        if count > self._times.size:
            return math.inf
        return float(self._times[count - 1])


def _packetize(size: int, mtu: int) -> List[int]:
    """Split ``size`` bytes into mtu-sized packets (last one partial)."""
    if size <= 0:
        return []
    n_full, rest = divmod(size, mtu)
    sizes = [mtu] * n_full
    if rest:
        sizes.append(rest)
    return sizes


def simulate_realtime(config: SimulationConfig, n_frames: int = 600,
                      profile: Optional[VideoProfile] = None
                      ) -> RealtimeResult:
    """Run the realtime camera-to-display loop for ``n_frames``.

    Requires ``config.realtime.enabled``; ``profile`` (optional)
    contributes its mean content complexity to the encode sizes so the
    chaos matrix can sweep the paper's workloads.

    Raises:
        RealtimeError: the realtime model is not enabled.
        ConfigError: ``n_frames`` is below one, as in ``simulate``.
    """
    rt = config.realtime
    if not rt.enabled:
        raise RealtimeError(
            "simulate_realtime needs RealtimeConfig(enabled=True)")
    if n_frames < 1:
        raise ConfigError(f"need at least one frame to play, got {n_frames}")
    video = config.video
    decoder = config.decoder
    psc = decoder.power_states
    radio = config.network.radio
    interval = video.frame_interval
    blocks_per_frame = video.blocks_per_frame
    complexity = profile.complexity_mean if profile is not None else 1.0

    link = BottleneckLink(rt)
    controller = DelayLossController(rt)
    ladder = DeadlineLadder(rt.downscale_factor, rt.freeze_fraction)
    plan = FaultPlan.from_config(config.faults)
    tracker = PowerTracker(psc)

    completion = np.full(n_frames, math.inf, dtype=np.float64)
    step_arr = np.zeros(n_frames, dtype=np.int8)
    miss = np.zeros(n_frames, dtype=bool)
    lost_blocks = np.zeros(n_frames, dtype=np.int32)
    send_rate = np.zeros(n_frames, dtype=np.float64)
    queue_delay_arr = np.zeros(n_frames, dtype=np.float64)
    lost_spans: Dict[int, List[Tuple[int, int]]] = {}

    data_bytes = parity_bytes = retx_bytes = packets_sent = 0
    fec_frames = retx_frames = 0
    airtime = 0.0
    recovery_airtime = 0.0
    fec_overhead = (1.0 / rt.fec_group) if rt.recovery != "retx" else 0.0

    for i in range(n_frames):
        t = i * interval
        deadline = t + rt.latency_budget
        link.drain(t)
        send_rate[i] = controller.rate

        is_i_frame = i % video.gop_length == 0
        type_factor = _I_FRAME_FACTOR if is_i_frame else _P_FRAME_FACTOR
        jitter = 1.0 - _SIZE_JITTER + 2.0 * _SIZE_JITTER * hash_u01(
            rt.seed, _SITE_FRAME_SIZE, i)
        base_size = (controller.rate / video.fps) * type_factor \
            * jitter * complexity

        if rt.ladder:
            def _predict(factor: float, now: float = t,
                         size: float = base_size) -> float:
                return link.predict_arrival(
                    now, size * factor * (1.0 + fec_overhead))
            step, factor = ladder.choose(deadline, _predict)
        else:
            step, factor = 0, 1.0
        step_arr[i] = step

        if step == 3:  # skip: nothing on the wire, full interval slack
            queue_delay_arr[i] = link.queue_delay(t)
            controller.observe(queue_delay_arr[i], 0.0)
            tracker.record_slack(plan_slack(
                interval, psc, psc.racing_transition_factor))
            continue

        size = max(1, int(round(base_size * factor)))
        sizes = _packetize(size, rt.mtu_bytes)
        n_data = len(sizes)
        injected = [plan.packet_lost(i, j, 0) if plan is not None else False
                    for j in range(n_data)]

        rtt = link.rtt_estimate(t)
        use_fec = (link.predict_arrival(t, size) + rtt > deadline
                   if rt.recovery == "adaptive" else rt.recovery == "fec")
        if use_fec:
            fec_frames += 1
        else:
            retx_frames += 1

        burst = link.send_burst(t, i, sizes, 0, injected)
        capacity = link.capacity(t)
        if capacity > 0:
            airtime += sum(sizes) / capacity
        data_bytes += sum(sizes)
        packets_sent += n_data
        effective = list(burst.arrival)

        first_pass_lost = sum(1 for a in burst.arrival if math.isinf(a))
        enqueued_delays = [d for a, d in zip(burst.arrival,
                                             burst.queue_delay) if d > 0.0
                           or not math.isinf(a)]
        mean_delay = (sum(enqueued_delays) / len(enqueued_delays)
                      if enqueued_delays else link.queue_delay(t))

        if use_fec:
            n_parity = parity_count(n_data, rt.fec_group)
            p_sizes = [rt.mtu_bytes] * n_parity
            p_injected = [plan.packet_lost(i, n_data + g, 0)
                          if plan is not None else False
                          for g in range(n_parity)]
            p_burst = link.send_burst(t, i, p_sizes, 0, p_injected,
                                      packet_offset=n_data)
            parity_bytes += sum(p_sizes)
            packets_sent += n_parity
            if capacity > 0:
                recovery_airtime += sum(p_sizes) / capacity
                airtime += sum(p_sizes) / capacity
            effective = apply_fec(effective, p_burst.arrival, rt.fec_group)
        else:
            horizon = deadline + _RETX_HORIZON_BUDGETS * rt.latency_budget
            for j, arrival in enumerate(effective):
                if not math.isinf(arrival):
                    continue
                for attempt in range(1, rt.max_retx + 1):
                    t_a = t + rtt * (attempt
                                     + rt.retx_rtt_factor * (attempt - 1))
                    if math.isinf(t_a) or t_a > horizon:
                        break
                    lost_again = (plan.packet_lost(i, j, attempt)
                                  if plan is not None else False)
                    a, _ = link.send_packet(t_a, i, j, attempt,
                                            sizes[j], lost_again)
                    retx_bytes += sizes[j]
                    packets_sent += 1
                    cap_a = link.capacity(t_a)
                    if cap_a > 0:
                        recovery_airtime += sizes[j] / cap_a
                        airtime += sizes[j] / cap_a
                    if not math.isinf(a):
                        effective[j] = a
                        break

        unrecovered = [j for j, a in enumerate(effective)
                       if math.isinf(a)]
        finite = [a for a in effective if not math.isinf(a)]
        if finite:
            completion[i] = max(finite)
        if step <= 1 and unrecovered:
            spans = []
            for j in unrecovered:
                lo = j * blocks_per_frame // n_data
                hi = (j + 1) * blocks_per_frame // n_data
                if hi > lo:
                    spans.append((lo, hi))
            if spans:
                lost_spans[i] = spans
                lost_blocks[i] = sum(hi - lo for lo, hi in spans)
        miss[i] = bool(unrecovered) or not finite \
            or completion[i] > deadline

        queue_delay_arr[i] = mean_delay
        controller.observe(mean_delay,
                           first_pass_lost / n_data if n_data else 0.0)

        # Race-to-sleep: decode at boost as soon as the frame lands,
        # then sleep the remaining slack of the frame interval.
        per_frame = (decoder.cycles_per_frame_i if is_i_frame
                     else decoder.cycles_per_frame_p)
        cycles = decoder.base_cycles + per_frame * complexity * factor
        decode_time = cycles / decoder.high_freq
        if finite:
            tracker.record_execution(decode_time, decoder.high_freq_power)
            slack = max(0.0, interval - decode_time)
        else:
            slack = interval
        tracker.record_slack(plan_slack(
            slack, psc, psc.racing_transition_factor))

    decode_energy = tracker.energy_by_state[PowerState.EXECUTION]
    sleep_energy = tracker.total_energy - decode_energy
    duration = n_frames * interval
    radio_energy = airtime * radio.active_power \
        + max(0.0, duration - airtime) * radio.tail_power

    result = RealtimeResult(
        n_frames=n_frames, fps=video.fps,
        latency_budget=rt.latency_budget,
        blocks_per_frame=blocks_per_frame,
        completion=completion, step=step_arr, miss=miss,
        lost_blocks=lost_blocks, send_rate=send_rate,
        queue_delay=queue_delay_arr,
        data_bytes=data_bytes, parity_bytes=parity_bytes,
        retx_bytes=retx_bytes, packets_sent=packets_sent,
        overflow_drops=link.overflow_drops, red_drops=link.red_drops,
        injected_drops=link.injected_drops,
        fec_frames=fec_frames, retx_frames=retx_frames,
        downscaled_frames=ladder.downscaled,
        frozen_frames=ladder.frozen, skipped_frames=ladder.skipped,
        degradation_steps=ladder.degradation_steps,
        decode_energy=decode_energy, sleep_energy=sleep_energy,
        radio_energy=radio_energy,
        recovery_energy=recovery_airtime * radio.active_power,
        lost_spans=lost_spans,
    )
    return result


def realtime_playback(scheme: SchemeConfig, config: SimulationConfig,
                      n_frames: int = 300,
                      profile: Optional[VideoProfile] = None
                      ) -> "RunResult":
    """Run the realtime loop, then the exact decode pipeline on top.

    The realtime arrivals become the pipeline's frame source and the
    unrecovered blocks a concealment overlay, so deadline misses and
    recovery failures are healed by the same ``conceal_blocks`` path —
    and charged the same extra reference reads — as injected bit
    errors.  Returns the pipeline's ``RunResult``.

    The pipeline calls the VD for frame ``i`` at ``i / fps`` and shows
    it one refresh later.  Its clock starts ``latency_budget`` after
    the first capture, so frame ``i``'s delivery deadline is its VD
    call: a frame delivered on time has a whole refresh to decode.
    """
    from ..core.pipeline import simulate
    from ..video import workload

    realtime = simulate_realtime(config, n_frames=n_frames,
                                 profile=profile)
    source = profile if profile is not None else workload("V1")
    network_model = RealtimeFrameSource(
        realtime.availability_times() - realtime.latency_budget)
    return simulate(source, scheme, n_frames=n_frames, config=config,
                    network_model=network_model,
                    block_loss_overlay=realtime.block_overlay())
