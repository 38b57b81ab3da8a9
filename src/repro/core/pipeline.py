"""End-to-end playback simulation (the paper's Fig. 1b flow).

One :func:`simulate` call plays one video through one scheme as a
playback session (:class:`_Playback`) whose named steps are the flow:

1. the network model buffers encoded frames;
2. ``wake`` — the Race-to-Sleep governor plans the VD's next batch;
3. ``sleep`` — the slack before it goes to the deepest profitable
   sleep state;
4. ``decode`` — the VD decodes each frame, generating encoded-stream
   reads, reference reads, and the content-caching write path's
   frame-buffer writes;
5. ``show_until`` — the display controller scans a frame out at every
   vsync through the display-caching read path, detecting drops;
6. every memory access (plus background masters) flows through the
   LPDDR3 row-buffer model, and the run is integrated into the
   nine-part energy breakdown.

Timing is event-driven at frame granularity; memory traffic carries
per-access timestamps so DRAM row interleaving is faithful.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

from ..config import MachConfig, SchemeConfig, SimulationConfig
from ..decoder.power import PowerState, PowerTracker, SleepDecision, plan_slack
from ..decoder.vd import VideoDecoder
from ..display.controller import DisplayController
from ..errors import ConfigError
from ..faults import FaultPlan, conceal_blocks
from ..display.framebuffer import FrameBufferPool
from ..thermal import ThermalModel
from ..memory.address import RegionMap
from ..memory.controller import MemoryController
from ..memory.energy import memory_energy
from ..pcg64 import skip_outputs
from ..video.frame import DecodedFrame, FrameType
from ..video.synthesis import SyntheticVideo, VideoProfile
from ..video.trace import FrameTrace
from .batching import FrameSource, NetworkModel
from .energy import EnergyBreakdown, build_breakdown
from .race_to_sleep import AdaptiveRtSGovernor, RaceToSleepGovernor
from .readpath import DisplayReadEngine
from .results import FrameTimeline, RunResult
from .writeback import (
    FrameMatches,
    WritebackEngine,
    WritebackResult,
    slot_bytes_needed,
)

#: Refresh intervals between a frame's decode slot and its display: the
#: VD is called in slot f and the frame must be in the buffer by the
#: next vsync (paper Sec. 2.1 — a 16 ms decode budget per frame).
DISPLAY_LEAD = 1


def _uniform_times(rng: np.random.Generator, start: float, end: float,
                   count: int) -> np.ndarray:
    """Randomized arrival times over a window, order preserved.

    Per-macroblock decode times (and DC line-buffer refills) vary, so a
    stream's accesses drift across its window instead of marching on a
    fixed grid; using uniform order statistics keeps the stream's
    density while preventing artificial bank-sweep phase-lock between
    agents.  An empty window draws nothing from ``rng``.
    """
    times = rng.uniform(start, end, size=count)
    times.sort()
    return times


#: Accesses per window of the end-of-run DRAM replay: windows close at
#: scheduling-quantum boundaries, about this many accesses apart.
_REPLAY_WINDOW = 1 << 16


def _window_keys(times: np.ndarray, quantum: float) -> np.ndarray:
    """What places each access in a replay window: its scheduling
    quantum, truncated as the controller truncates it, or without a
    quantum its time."""
    if quantum <= 0:
        return times
    keys = np.empty(len(times), dtype=np.int64)
    np.divide(times, quantum, out=keys, casting="unsafe")  # truncates
    return keys


def _split_chunk(times: np.ndarray, addresses: np.ndarray, quantum: float,
                 cuts: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """A chunk's accesses window by window, each window's in log order:
    window ``k`` holds the keys in ``(cuts[k - 1], cuts[k]]``.  A chunk
    already in window order splits into views of itself."""
    window = np.searchsorted(cuts, _window_keys(times, quantum))
    if not (window[:-1] <= window[1:]).all():
        order = np.argsort(window, kind="stable")
        times, addresses, window = (
            times[order], addresses[order], window[order])
    ends = np.searchsorted(window, np.arange(1, len(cuts) + 1))
    return list(zip(np.split(times, ends), np.split(addresses, ends)))


class _Draw:
    """A :func:`_uniform_times` draw logged as its recipe: the drawing
    generator's PCG64 state word just before it, and its window and
    count.  Its length is the count."""

    __slots__ = ("state", "start", "end", "count")

    def __init__(self, state: int, start: float, end: float,
                 count: int) -> None:
        self.state, self.start, self.end, self.count = (
            state, start, end, count)

    def __len__(self) -> int:
        return self.count


class _TrafficLog:
    """Accumulates timestamped accesses from all agents in chunks: each
    chunk's addresses and times, and once per chunk its write flag and
    agent.  A chunk logged by :meth:`add_uniform` keeps the recipe of
    its times (a :class:`_Draw`), not the times themselves."""

    def __init__(self) -> None:
        self._times: List[Union[np.ndarray, _Draw]] = []
        self._addresses: List[np.ndarray] = []
        self._writes: List[bool] = []
        self._agents: List[str] = []
        #: The PCG64 increment of the generator every draw comes from.
        self._increment: Optional[int] = None

    def add(self, agent: str, times: np.ndarray, addresses: np.ndarray,
            is_write: bool) -> None:
        if len(times) == 0:
            return
        self._times.append(np.asarray(times, dtype=np.float64))
        self._log(agent, addresses, is_write)

    def add_uniform(self, agent: str, rng: np.random.Generator,
                    start: float, end: float, addresses: np.ndarray,
                    is_write: bool) -> None:
        """Log ``addresses`` at the times ``_uniform_times(rng, start,
        end, len(addresses))`` would draw, without drawing them.

        ``rng`` is left where that draw would leave it: ``uniform``
        takes one 64-bit output per double, so the generator advances
        by the count.  :meth:`replay` regenerates the times from the
        saved state word.  Every draw of one log comes from one PCG64
        generator.
        """
        count = len(addresses)
        if count == 0:
            return
        state = rng.bit_generator.state
        word = state["state"]
        if self._increment is None:
            self._increment = word["inc"]
        elif word["inc"] != self._increment:
            raise ValueError("a traffic log defers draws of one generator")
        skip_outputs(rng, state, count)
        self._times.append(_Draw(word["state"], float(start), float(end),
                                 count))
        self._log(agent, addresses, is_write)

    def _log(self, agent: str, addresses: np.ndarray,
             is_write: bool) -> None:
        self._addresses.append(np.asarray(addresses, dtype=np.int64))
        self._writes.append(bool(is_write))
        self._agents.append(agent)

    def _drawn(self, times: Union[np.ndarray, _Draw],
               scratch: np.random.Generator) -> np.ndarray:
        """A chunk's times: logged, or a draw regenerated on
        ``scratch`` from its saved state."""
        if not isinstance(times, _Draw):
            return times
        scratch.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": times.state, "inc": self._increment},
            "has_uint32": 0, "uinteger": 0}
        return _uniform_times(scratch, times.start, times.end, times.count)

    def replay(self, memory: MemoryController) -> None:
        """Play every logged access through ``memory`` a window at a
        time, and empty the log.

        Windows cut the run at scheduling-quantum boundaries (at time
        boundaries without a quantum).  The controller orders a window
        by (bank, quantum, row, time, arrival) and carries each bank's
        state into its next call, so whole quanta played in turn count
        what one call over the run counts.  A window takes its chunks
        in log order, which keeps arrival order, and a chunk that
        straddles windows is split among them.  Every call names all of
        the run's agents in first-seen order, as the stats list them.
        A deferred draw is regenerated when its first window plays, and
        each chunk is freed once its last window has been played.
        """
        times, addresses = self._times, self._addresses
        if not times:
            return
        names = list(dict.fromkeys(self._agents))
        codes = np.asarray([names.index(agent) for agent in self._agents],
                           dtype=np.uint8)
        writes = np.asarray(self._writes, dtype=bool)
        quantum = memory.config.scheduler_quantum
        first, last, cuts = self._windows(quantum)
        members: List[List[int]] = [[] for _ in range(len(cuts) + 1)]
        for chunk, (lo, hi) in enumerate(zip(first, last)):
            for window in range(lo, hi + 1):
                members[window].append(chunk)
        # One seeded generator, re-stated for every deferred draw.
        scratch = np.random.Generator(np.random.PCG64(0))
        # Each chunk's pieces still to play, last window's first.
        pieces: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        for window, chunks in enumerate(members):
            parts = []
            for chunk in chunks:
                if window == first[chunk]:
                    chunk_times = self._drawn(times[chunk], scratch)
                    pieces[chunk] = (
                        [(chunk_times, addresses[chunk])]
                        if first[chunk] == last[chunk] else _split_chunk(
                            chunk_times, addresses[chunk], quantum,
                            cuts[first[chunk]:last[chunk]])[::-1])
                    times[chunk] = addresses[chunk] = None
                parts.append(pieces[chunk].pop())
            lengths = [len(part_times) for part_times, _ in parts]
            window_times, window_addresses = map(np.concatenate, zip(*parts))
            del parts
            memory.process_window(
                window_times, window_addresses,
                np.repeat(writes[chunks], lengths),
                (names, np.repeat(codes[chunks], lengths)))
        self._times, self._addresses, self._writes, self._agents = (
            [], [], [], [])

    def _windows(self, quantum: float
                 ) -> Tuple[List[int], List[int], np.ndarray]:
        """Each chunk's first and last replay window, and the cuts
        between windows: window ``k`` holds the accesses whose keys
        (:func:`_window_keys`) lie in ``(cuts[k - 1], cuts[k]]``."""
        lengths = np.fromiter(map(len, self._times), dtype=np.int64,
                              count=len(self._times))
        total = int(lengths.sum())
        lo, hi = self._spans(lengths)
        lo, hi = _window_keys(lo, quantum), _window_keys(hi, quantum)
        # Windows close at chunk ends: at the last key of the chunk that
        # brings the accesses ending by it to the next multiple of the
        # window size.
        by_end = np.argsort(hi, kind="stable")
        filled = np.cumsum(lengths[by_end])
        closing = np.searchsorted(
            filled, np.arange(_REPLAY_WINDOW, total, _REPLAY_WINDOW))
        keys = set(hi[by_end[closing]].tolist())
        keys.discard(hi[by_end[-1]].item())  # no window past the last key
        cuts = np.asarray(sorted(keys), dtype=hi.dtype)
        return (np.searchsorted(cuts, lo).tolist(),
                np.searchsorted(cuts, hi).tolist(), cuts)

    def _spans(self, lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Bounds on each chunk's times: a deferred draw's window, which
        holds every time it draws, or the least and greatest logged
        time, reduced a window's worth of chunks per call."""
        lo, hi = np.empty(len(lengths)), np.empty(len(lengths))
        logged = []
        for chunk, times in enumerate(self._times):
            if isinstance(times, _Draw):
                lo[chunk], hi[chunk] = times.start, times.end
            else:
                logged.append(chunk)
        starts = np.zeros(len(logged) + 1, dtype=np.int64)
        np.cumsum(lengths[logged], out=starts[1:])
        a = 0
        while a < len(logged):
            b = max(a + 1, int(np.searchsorted(
                starts, starts[a] + _REPLAY_WINDOW, side="right")) - 1)
            batch = np.concatenate([self._times[c] for c in logged[a:b]])
            offsets = starts[a:b] - starts[a]
            lo[logged[a:b]] = np.minimum.reduceat(batch, offsets)
            hi[logged[a:b]] = np.maximum.reduceat(batch, offsets)
            a = b
        return lo, hi


def _reads_pixels(scheme: SchemeConfig) -> bool:
    """Whether a run under ``scheme`` reads its frames' content.

    Only the content-caching write path (MACH digests) and DCC look at
    decoded bytes; every other step uses a frame's type, complexity,
    encoded size and block geometry.
    """
    return scheme.uses_mach or scheme.dcc


def _resolve_source(
    source: VideoSource, cfg: SimulationConfig, n_frames: Optional[int],
    seed: int, pixels: bool,
) -> Tuple[Iterable[DecodedFrame], int, str, SimulationConfig]:
    """Turn the ``source`` argument into (stream, count, key, config).

    Accepts a :class:`VideoProfile` (the synthetic generator path), a
    :class:`~repro.video.trace.FrameTrace` (recorded/real content — its
    geometry overrides the configured one), or any sized iterable of
    :class:`DecodedFrame`.  Without ``pixels`` a profile's frames are
    synthesised from the same draws but left unrendered.  Raises
    :class:`ConfigError` when that leaves fewer than one frame to play.
    """
    if isinstance(source, VideoProfile):
        count = n_frames if n_frames is not None else source.n_frames
    else:
        count = len(source) if n_frames is None else min(len(source), n_frames)
    if count < 1:
        raise ConfigError(f"need at least one frame to play, got {count}")
    if isinstance(source, VideoProfile):
        stream = SyntheticVideo(
            cfg.video, source, seed=seed, n_frames=count,
            complexity_sigma=cfg.calibration.complexity_sigma)
        return (stream if pixels else stream._without_pixels(), count,
                source.key, cfg)
    if isinstance(source, FrameTrace):
        return source, count, "trace", replace(
            cfg, video=source.video_config)
    return source, count, getattr(source, "key", "stream"), cfg


#: What :func:`simulate` accepts as content: a Table-1 profile, a
#: captured trace, or any sized iterable of decoded frames.
VideoSource = Union[VideoProfile, FrameTrace, Sequence[DecodedFrame]]


def simulate(
    source: VideoSource,
    scheme: SchemeConfig,
    n_frames: Optional[int] = None,
    config: Optional[SimulationConfig] = None,
    seed: int = 0,
    unbounded_mach: bool = False,
    use_display_cache: bool = True,
    use_mach_buffer: bool = True,
    buffer_policy: str = "lazy",
    network_model: Optional[FrameSource] = None,
    block_loss_overlay: Optional[Mapping[int, np.ndarray]] = None,
) -> RunResult:
    """Simulate playback of ``source`` under ``scheme``.

    Args:
        source: what to play — a :class:`VideoProfile` (Table 1 entry
            or custom), a :class:`~repro.video.trace.FrameTrace`, or
            any sized iterable of :class:`DecodedFrame`.
        scheme: which technique stack to run (e.g. ``config.GAB``).
        n_frames: frames to play (defaults to the source's full count).
        config: simulation configuration (defaults are the paper's).
        seed: RNG seed for content and background traffic.
        unbounded_mach: replace MACH with the capacity-free oracle
            ("optimal" in Fig. 9a).
        use_display_cache / use_mach_buffer: ablation switches for the
            display read path (Fig. 10e's "original layout" bar).
        buffer_policy: MACH-buffer fill policy ('lazy' or 'eager').
        network_model: frame-arrival source; defaults to the chunked
            :class:`NetworkModel` stub from ``config.network``.  Pass
            a :class:`repro.network.DeliveredNetworkModel` to drive
            availability (and hence the Race-to-Sleep batch cap) from
            a trace-driven delivery run.
        block_loss_overlay: per-frame macroblock indices lost upstream
            of the decoder (the realtime mode's unrecovered packets,
            :meth:`repro.realtime.RealtimeResult.block_overlay`).
            They conceal through the same path as injected bit errors
            — the union of both sources, so composing them never
            reshuffles either schedule.  ``None`` (default) is inert.

    Returns:
        A :class:`RunResult` with the energy breakdown and statistics.

    Raises:
        ConfigError: the source and ``n_frames`` leave no frame to play,
            or a frame's block geometry disagrees with ``config.video``
            (a :class:`~repro.video.trace.FrameTrace` sets its own).
    """
    cfg = config or SimulationConfig()
    stream, count, profile_key, cfg = _resolve_source(
        source, cfg, n_frames, seed, _reads_pixels(scheme))
    play = _Playback(
        cfg, scheme, count, seed, unbounded_mach=unbounded_mach,
        use_display_cache=use_display_cache, use_mach_buffer=use_mach_buffer,
        buffer_policy=buffer_policy, network_model=network_model,
        block_loss_overlay=block_loss_overlay)
    frames = iter(stream)
    while play.next_frame < count:
        for _ in range(play.wake()):
            play.decode(next(frames))
    # Trailing slack up to the last refresh, then flush the display.
    end_time = play.governor.deadline(count - 1) + cfg.video.frame_interval
    if end_time > play.now:
        play.sleep(end_time)
    play.show_until(end_time)
    play.add_background(end_time)
    return play.result(profile_key, end_time)


class _Playback:
    """One playback session: the components, the clock, and the state
    the named steps share.

    ``now`` is the VD's clock and ``next_frame`` the first frame not yet
    decoded; ``last_batch`` is the batch just decoded, which shares the
    next slack.  ``cursor`` is the next vsync the display has not
    processed; ``completed`` holds the write-path result of each decoded
    frame the display may still scan out (those not yet passed, and
    ``last_shown``), and ``skipped`` the frames whose vsync passed
    undecoded.  ``write_bytes`` and ``raw_write_bytes`` total every
    decoded frame's writes, so a result can go once it is scanned out.
    """

    def __init__(self, cfg: SimulationConfig, scheme: SchemeConfig,
                 count: int, seed: int, *, unbounded_mach: bool,
                 use_display_cache: bool, use_mach_buffer: bool,
                 buffer_policy: str, network_model: Optional[FrameSource],
                 block_loss_overlay: Optional[Mapping[int, np.ndarray]],
                 ) -> None:
        self.cfg = cfg
        self.scheme = scheme
        self.count = count
        self.psc = cfg.decoder.power_states
        self.frame_interval = cfg.video.frame_interval
        self.mach_cfg = cfg.with_scheme_mach(scheme)
        # Hardware power/overhead numbers use the paper-spec MACH; the
        # behavioural structures are capacity-scaled to the sim resolution.
        sim_mach = self.mach_cfg.scaled_for(cfg.video)
        self._build_memory(sim_mach)
        self._build_decode(network_model)
        # Fault injection (inert by default): bit errors conceal from the
        # previous frame, digest collisions trigger the MACH verify
        # fallback.  The plan is a pure function of the fault seed, so a
        # faulted run is exactly as deterministic as a clean one.
        self.fault_plan = FaultPlan.from_config(cfg.faults)
        self.block_loss_overlay = block_loss_overlay or {}
        self.writeback = WritebackEngine(
            cfg.video, sim_mach, scheme, cfg.dram.line_bytes,
            unbounded_mach=unbounded_mach, fault_plan=self.fault_plan)
        self.display = DisplayController(cfg.display,
                                          cfg.calibration.display_scan_duty)
        self.reader = DisplayReadEngine(
            cfg.display, sim_mach, cfg.video, cfg.dram.line_bytes,
            use_display_cache=use_display_cache,
            use_mach_buffer=use_mach_buffer, buffer_policy=buffer_policy)
        self.tracker = PowerTracker(self.psc)
        self.traffic = _TrafficLog()
        self.rng = np.random.default_rng(seed + 0x5EED)
        self.timeline = FrameTimeline.empty(count)
        self.raw_frame_lines = cfg.video.frame_bytes / cfg.dram.line_bytes
        self.frame_shape = (cfg.video.blocks_per_frame, cfg.video.block_bytes)

        self.now = 0.0
        self.next_frame = 0
        self.last_batch = 1
        self.cursor = 0
        self.last_shown: Optional[int] = None
        self.completed: Dict[int, WritebackResult] = {}
        self.write_bytes = 0
        self.raw_write_bytes = 0
        self.skipped: Set[int] = set()
        self.prev_blocks: Optional[np.ndarray] = None  # for concealment
        self.concealed = 0
        self.frames_at_nominal = 0  # racing frames forced to nominal clock

    def _build_memory(self, sim_mach: MachConfig) -> None:
        """Lay out DRAM regions and frame buffers; build the controller."""
        cfg, scheme = self.cfg, self.scheme
        regions = RegionMap(cfg.dram)
        self.network_region = regions.add("network", 1 << 20)
        # Displayed frames stay resident while still referenced: as motion
        # references for the next frame's decode (all schemes), and as MACH
        # pointer donors for up to num_machs frames (MACH schemes).
        retention = self.mach_cfg.num_machs if scheme.uses_mach else 1
        slots = scheme.batch_size + 2 + retention
        slot_bytes = slot_bytes_needed(cfg.video, sim_mach, scheme)
        row_span = cfg.dram.row_bytes * cfg.dram.channels
        slot_bytes = (slot_bytes + row_span - 1) // row_span * row_span
        pool_span = slots * (slot_bytes
                             + row_span * FrameBufferPool.PHASE_SLOTS)
        fb_region = regions.add("framebuffers", pool_span)
        self.other_region = regions.add("other", 4 << 20)
        self.pool = FrameBufferPool(fb_region.base, slot_bytes, slots,
                                    retention=retention, phase_span=row_span)
        # The simulated traffic is a 1/scale sample of the native stream,
        # so the time-domain controller parameters (row-open timeout and
        # the FR-FCFS quantum) are stretched by the same factor to
        # preserve the interleaving statistics (DESIGN.md section 2).
        scale = cfg.video.scale_to_native
        self.dram_cfg = replace(
            cfg.dram,
            row_max_open=cfg.dram.row_max_open * scale,
            scheduler_quantum=cfg.dram.scheduler_quantum * scale,
        )
        self.memory = MemoryController(self.dram_cfg)

    def _build_decode(self, network_model: Optional[FrameSource]) -> None:
        """The network source, thermal model, governor and decoder."""
        cfg, scheme = self.cfg, self.scheme
        self.network = (network_model if network_model is not None
                        else NetworkModel(cfg.network, cfg.video.fps,
                                          self.count))
        # Thermal pressure (inert by default): junction temperature, the
        # sustained-power cap, and injected throttle events can revoke the
        # boost frequency mid-session; the adaptive governor degrades
        # gracefully, the fixed one discovers the revocation at decode.
        self.thermal = (ThermalModel(cfg.thermal) if cfg.thermal.enabled
                        else None)
        self.adaptive: Optional[AdaptiveRtSGovernor] = None
        if (self.thermal is not None and cfg.thermal.adaptive
                and scheme.racing and scheme.batch_size > 1):
            self.adaptive = AdaptiveRtSGovernor(
                scheme, cfg.decoder, self.network, self.frame_interval,
                DISPLAY_LEAD, self.thermal)
        self.governor: RaceToSleepGovernor = (
            self.adaptive if self.adaptive is not None
            else RaceToSleepGovernor(scheme, cfg.decoder, self.network,
                                     self.frame_interval, DISPLAY_LEAD))
        self.vd = VideoDecoder(cfg.decoder, cfg.video, cfg.dram.line_bytes)

    # -- the vsync step -------------------------------------------------------

    def show_until(self, upto: float) -> None:
        """Process every vsync whose refresh begins at or before ``upto``.

        A frame decoded by its vsync is scanned out and retired; a late
        or missing one is a drop, and the DC re-scans the last frame it
        showed.  Once the cursor has passed a frame, only ``last_shown``
        can be scanned again, so every other passed frame's write result
        is dropped (a frame decoded after its vsync keeps none).
        """
        while self.cursor < self.count:
            v = self.cursor
            vsync = self.governor.deadline(v)
            if vsync > upto + 1e-12:
                break
            ready = (v in self.completed
                     and self.timeline.finish[v] <= vsync + 1e-12)
            self.display.record_refresh(v, ready)
            self.timeline.dropped[v] = not ready
            if ready:
                self.last_shown = v
            if v in self.completed:
                # Shown, or decoded too late to be shown: retire it now.
                self.pool.mark_displayed(v)
            else:
                self.skipped.add(v)
            if self.last_shown is not None:
                self._scan_out(self.completed[self.last_shown], vsync)
            self.cursor += 1
            for passed in [k for k in self.completed
                           if k < self.cursor and k != self.last_shown]:
                del self.completed[passed]

    def _scan_out(self, frame: WritebackResult, vsync: float) -> None:
        """One refresh's DC reads of ``frame``, at the DC's fixed line
        rate: a compacted frame finishes early instead of stretching
        over the whole refresh."""
        full = self.frame_interval * self.cfg.calibration.display_scan_duty
        scan = self.reader.scan(frame)
        density = min(1.0, scan.count / self.raw_frame_lines)
        end = vsync + full * max(density, 0.05)
        self.traffic.add_uniform("dc", self.rng, vsync, end, scan.addresses,
                                 is_write=False)

    # -- the governor and slack steps ----------------------------------------

    def wake(self) -> int:
        """One Race-to-Sleep decision epoch.

        Plans the next wake (the fixed plan, or the adaptive ladder's
        under thermal pressure), sleeps through the slack before it,
        and pays any injected wake delay.  Returns the batch to decode
        now; 0 means the batch is stalled on the network or on buffer
        drain, and ``now`` has jumped toward the event that unblocks it.
        """
        self.show_until(self.now)
        thermal = self.thermal
        if thermal is not None:
            # Catch up over stall jumps the tracker does not record.
            thermal.advance_to(self.now, self.psc.p_idle_power)
        if self.adaptive is not None:
            plan = self.adaptive.plan_wake_adaptive(
                self.now, self.next_frame, self._buffers_free_time)
            batch_cap, allow_s3 = plan.batch_cap, plan.allow_s3
        else:
            plan = self.governor.plan_wake(
                self.now, self.next_frame,
                self._buffers_free_time(self.scheme.batch_size))
            batch_cap, allow_s3 = self.scheme.batch_size, True
        if plan.wake_time > self.now + 1e-12:
            decision = self.sleep(plan.wake_time, allow_s3=allow_s3)
            if thermal is not None and decision.transition_time > 0:
                delay = thermal.wake_delay(self.now)
                if delay > 0:
                    # Injected slow frequency ramp out of sleep: both
                    # governors pay it; only the adaptive one planned
                    # its wake early enough to absorb it.
                    self.sleep(self.now + delay, ramp=delay)
        available = self.network.frames_available(self.now) - self.next_frame
        free = self.pool.slots - self.pool.live_count
        batch = min(batch_cap, available, free, self.count - self.next_frame)
        if batch < 1:
            unblock = max(
                self.network.time_when_available(self.next_frame + 1),
                self._buffers_free_time(batch_cap) if free < 1 else self.now)
            self.now = max(unblock, self.now + self.frame_interval / 4)
            return 0
        self.last_batch = batch
        return batch

    def _buffers_free_time(self, batch_size: int) -> float:
        """When a ``batch_size`` batch's worth of slots will be free."""
        pool = self.pool
        need = (min(batch_size, self.count - self.next_frame)
                - (pool.slots - pool.live_count))
        if need <= 0:
            return self.now
        live = pool.live_indices
        victim = live[min(need, len(live)) - 1]
        return self.governor.deadline(victim + pool.retention)

    def sleep(self, until: float, allow_s3: bool = True,
              ramp: float = 0.0) -> SleepDecision:
        """Spend the slack from ``now`` to ``until``: the only slack path.

        The slack goes to the deepest profitable sleep state
        (:func:`plan_slack`; ``allow_s3=False`` caps it at S1).  A
        non-zero ``ramp`` is an injected slow wake instead: the VD sits
        powered-on idle for ``ramp`` seconds, ending at ``until``.  The
        decision is recorded, shared over the batch just decoded, and
        drives the thermal model; the display refreshes on meanwhile.
        """
        psc = self.psc
        if ramp:
            decision = SleepDecision(PowerState.SHORT_SLACK, 0.0, ramp,
                                     0.0, 0.0)
        else:
            # Racing pays the inflated transition cost only while boost
            # is actually granted.
            scale = (psc.racing_transition_factor
                     if self._racing_at(self.now) else 1.0)
            decision = plan_slack(until - self.now, psc, scale,
                                  allow_s3=allow_s3)
        self.tracker.record_slack(decision)
        self._attribute_slack(decision)
        if self.thermal is not None and decision.total_time > 0:
            self.thermal.advance_to(until, psc.p_idle_power if ramp
                                    else decision.average_power(psc))
        self.now = until
        self.show_until(until)
        return decision

    def _racing_at(self, at: float) -> bool:
        """Boost clock around ``at``: racing asks, thermal may revoke."""
        if self.thermal is not None and self.scheme.racing:
            return self.thermal.boost_available(at)
        return self.scheme.racing

    def _attribute_slack(self, decision: SleepDecision) -> None:
        """Share a slack decision evenly over the batch just decoded.

        The paper presents per-frame overheads with a batch's slack and
        transition cost shared by its frames (Fig. 2d: "transition
        overheads per frame ... reduced by 16x").
        """
        timeline, psc = self.timeline, self.psc
        end = self.next_frame
        if end == 0:
            return  # slack before the first decode belongs to no frame
        start = max(0, end - self.last_batch)
        share = 1.0 / (end - start)
        frames = slice(start, end)
        if decision.state is PowerState.S1:
            timeline.s1_time[frames] += decision.sleep_time * share
            timeline.s1_energy[frames] += (
                decision.sleep_time * psc.s1_power * share)
        elif decision.state is PowerState.S3:
            timeline.s3_time[frames] += decision.sleep_time * share
            timeline.s3_energy[frames] += (
                decision.sleep_time * psc.s3_power * share)
        timeline.idle_time[frames] += decision.idle_time * share
        timeline.idle_energy[frames] += (
            decision.idle_time * psc.p_idle_power * share)
        timeline.transition_time[frames] += decision.transition_time * share
        timeline.transition_energy[frames] += (
            decision.transition_energy * share)

    # -- the decode step ---------------------------------------------------------

    def decode(self, frame: DecodedFrame) -> None:
        """Decode one frame: VD timing and thermal, input reads and
        concealment, the write path, and the frame's timeline row."""
        index = frame.index
        if frame.blocks.shape != self.frame_shape:
            raise ConfigError(
                f"frame {index} holds {frame.n_blocks} blocks of "
                f"{frame.block_bytes} bytes; the video config expects "
                f"{self.frame_shape[0]} blocks of {self.frame_shape[1]}")
        start = self.now
        if self.scheme.batch_size == 1:
            # Frame-by-frame decoding starts no earlier than its call slot.
            start = max(start, self.governor.call_time(index))
        racing = self._racing_at(start)
        if self.scheme.racing and not racing:
            self.frames_at_nominal += 1
        duration = self.vd.decode_duration(frame, racing)
        power = self.cfg.decoder.active_power(racing)
        finish = start + duration
        if self.thermal is not None:
            self.thermal.advance_to(finish, power)
        slot = self.pool.admit(index)
        frame = self._read_inputs(frame, start, finish)
        result = self.writeback.process_frame(frame, slot.base)
        self.traffic.add_uniform("vd_write", self.rng, start, finish,
                                 result.write_lines, is_write=True)
        self.pool.set_footprint(index, result.bytes_written)
        self.write_bytes += result.bytes_written
        self.raw_write_bytes += result.layout.raw_bytes
        self.tracker.record_execution(duration, power)
        self.timeline.decode_time[index] = duration
        self.timeline.exec_energy[index] = duration * power
        self.timeline.finish[index] = finish
        self.timeline.deadline[index] = self.governor.deadline(index)
        if index in self.skipped:
            # Its vsync has passed, so no scan-out will read it: retire
            # the slot at once and keep no write result.
            self.pool.mark_displayed(index)
        else:
            self.completed[index] = result
        self.next_frame += 1
        self.now = finish
        self.show_until(finish)

    def _read_inputs(self, frame: DecodedFrame, start: float,
                     finish: float) -> DecodedFrame:
        """The VD's reads: encoded stream and motion reference, then the
        concealment of blocks lost to bit errors or upstream.  Returns
        the frame to write back: ``frame``, or its concealed copy."""
        index, pool = frame.index, self.pool
        # The previous frame's buffer: motion reference, concealment source.
        previous = (pool.slot(index - 1).base if pool.is_live(index - 1)
                    else None)
        region = self.network_region
        reads = self.vd.read_traffic(
            frame, start, finish,
            encoded_base=region.base + (index * 4096) % (region.size // 2),
            reference_base=(None if frame.frame_type is FrameType.I
                            else previous),
            rng=self.rng)
        self.traffic.add("vd_read", reads.times, reads.addresses,
                         is_write=False)
        corrupt = self._lost_blocks(frame)
        if len(corrupt):
            # Conceal into this decode's own frame: the caller's frame
            # (a stream's source content, or a list played again) must
            # not inherit the receiver's damage.
            frame = replace(frame, blocks=frame.blocks.copy())
            self.concealed += conceal_blocks(frame.blocks, corrupt,
                                             self.prev_blocks)
            # Concealment re-reads each co-located block from the
            # previous frame's buffer: extra memory traffic the
            # fault-free path never pays.
            if previous is not None:
                line = self.cfg.dram.line_bytes
                addresses = (previous
                             + (corrupt * frame.block_bytes) // line * line)
                self.traffic.add_uniform("vd_read", self.rng, start, finish,
                                         addresses, is_write=False)
        self.prev_blocks = frame.blocks
        return frame

    def _lost_blocks(self, frame: DecodedFrame) -> np.ndarray:
        """Macroblocks of ``frame`` corrupted by injected bit errors or
        lost upstream of the decoder (the union of both sources)."""
        corrupt = (self.fault_plan.corrupt_block_indices(
            frame.index, frame.n_blocks, frame.block_bytes)
            if self.fault_plan is not None
            else np.empty(0, dtype=np.int64))
        lost = self.block_loss_overlay.get(frame.index)
        if lost is not None and len(lost):
            corrupt = np.union1d(corrupt, np.asarray(lost, dtype=np.int64))
        return corrupt

    # -- after playback ----------------------------------------------------------

    def add_background(self, end_time: float) -> None:
        """CPU/GPU masters' traffic over the whole run."""
        cfg = self.cfg
        line_bytes = cfg.dram.line_bytes
        frame_lines = cfg.video.frame_bytes // line_bytes
        bg_per_interval = (2 * frame_lines
                           * cfg.calibration.other_traffic_fraction)
        bg_count = int(bg_per_interval * end_time / self.frame_interval)
        if not bg_count:
            return
        # CPU/GPU masters fetch in short sequential runs (cache refills),
        # not isolated random lines.
        run = 16
        n_runs = max(1, bg_count // run)
        run_starts = np.sort(self.rng.uniform(0.0, end_time, size=n_runs))
        # Back-to-back line transfers, scaled like the controller timing.
        line_time = 8e-9 * cfg.video.scale_to_native
        times = (run_starts[:, None]
                 + np.arange(run)[None, :] * line_time).ravel()
        region_lines = self.other_region.size // line_bytes
        line_starts = self.rng.integers(0, region_lines - run, size=n_runs)
        lines = (line_starts[:, None] + np.arange(run)[None, :]).ravel()
        self.traffic.add("other", times,
                         self.other_region.base + lines * line_bytes,
                         is_write=False)

    def _energy(self, end_time: float) -> EnergyBreakdown:
        """Replay all DRAM traffic, then integrate the energy breakdown."""
        self.traffic.replay(self.memory)
        mem_energy = memory_energy(self.dram_cfg, self.memory.stats,
                                   end_time).scaled(
            self.cfg.video.scale_to_native)
        return build_breakdown(self.tracker, mem_energy, self.cfg.display,
                               self.mach_cfg, self.scheme, end_time)

    def result(self, profile_key: str, end_time: float) -> RunResult:
        """The run's :class:`RunResult`, after DRAM replay and energy."""
        energy = self._energy(end_time)
        # MACH statistics are run totals of the per-frame censuses; a
        # raw scheme has none.
        mach = self.writeback.stats
        thermal, adaptive = self.thermal, self.adaptive
        return RunResult(
            profile_key=profile_key,
            scheme_name=self.scheme.name,
            n_frames=self.count,
            elapsed=end_time,
            energy=energy,
            drops=self.display.stats.drops,
            residency={s: self.tracker.residency(s) for s in PowerState},
            transitions=self.tracker.transitions,
            timeline=self.timeline,
            matches=(FrameMatches(mach.intra, mach.inter, mach.none)
                     if mach else None),
            write_bytes=self.write_bytes,
            raw_write_bytes=self.raw_write_bytes,
            read_stats=self.reader.stats if mach else None,
            mem_stats=self.memory.stats,
            peak_footprint_native_mb=self.pool.peak_footprint
            * self.cfg.video.scale_to_native / (1 << 20),
            silent_collisions=mach.silent_collisions if mach else 0,
            detected_collisions=mach.detected_collisions if mach else 0,
            concealed_blocks=self.concealed,
            injected_collisions=mach.injected_collisions if mach else 0,
            fallback_writes=mach.fallback_writes if mach else 0,
            throttle_seconds=(thermal.throttle_seconds
                              if thermal is not None else 0.0),
            degradation_steps=(adaptive.degradation_steps
                               if adaptive is not None else 0),
            frames_at_nominal=self.frames_at_nominal,
        )
