"""Configuration dataclasses for every simulated component.

Defaults follow the paper's Table 2 and the surrounding text:

* Video decoder (VD): 0.30 W @ 150 MHz, 0.69 W @ 300 MHz [Zhou et al.].
* Sleep states: S1 (light) and S3 (deep); waking costs 0.8 ms / 1.6 ms.
* DRAM: LPDDR3, 2 channels x 1 rank x 8 banks, 800 MHz, RoRaBaCoCh.
* Display: 3840x2160 @ 60 Hz, 0.12 W.
* MACH: 8 per-frame caches, 256 entries, 4-way, CRC32 digests.
* Display cache: 16 KB direct-mapped; MACH buffer: 96 KB / 2 K entries.

Energy constants that the paper never states in absolute terms (per
Act/Pre pair, per 64-byte burst, background power) are calibrated so
that the *baseline* energy breakdown matches Fig. 1a / Fig. 11 shape;
see ``PaperCalibration`` and DESIGN.md section 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from .errors import ConfigError
from .units import MBPS, MHZ, MS, MW, NS, W, kib

CACHE_LINE_BYTES = 64
BYTES_PER_PIXEL = 3  # RGB, as in the Android framebuffer the paper assumes.

#: Native resolution the paper simulates (4K UHD).
NATIVE_WIDTH = 3840
NATIVE_HEIGHT = 2160

#: Default scaled-down simulation resolution (see DESIGN.md section 2).
DEFAULT_SIM_WIDTH = 192
DEFAULT_SIM_HEIGHT = 108


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class VideoConfig:
    """Geometry of the simulated video stream."""

    width: int = DEFAULT_SIM_WIDTH
    height: int = DEFAULT_SIM_HEIGHT
    fps: float = 60.0
    block_size: int = 4  # decoded macroblock (mab) edge, in pixels
    gop_length: int = 30  # frames per I-to-I group of pictures
    b_frames_per_gop: int = 8

    def __post_init__(self) -> None:
        _require(self.width > 0 and self.height > 0, "resolution must be positive")
        _require(self.block_size > 0, "block size must be positive")
        _require(
            self.width % self.block_size == 0 and self.height % self.block_size == 0,
            f"{self.width}x{self.height} must divide into {self.block_size}px blocks",
        )
        _require(self.fps > 0, "fps must be positive")
        _require(self.gop_length >= 1, "GOP must contain at least one frame")

    @property
    def blocks_per_row(self) -> int:
        return self.width // self.block_size

    @property
    def blocks_per_col(self) -> int:
        return self.height // self.block_size

    @property
    def blocks_per_frame(self) -> int:
        return self.blocks_per_row * self.blocks_per_col

    @property
    def block_bytes(self) -> int:
        """Decoded bytes in one mab (48 B for the paper's 4x4 RGB blocks)."""
        return self.block_size * self.block_size * BYTES_PER_PIXEL

    @property
    def frame_bytes(self) -> int:
        return self.width * self.height * BYTES_PER_PIXEL

    @property
    def frame_interval(self) -> float:
        """Seconds between display refreshes (16.6 ms at 60 fps)."""
        return 1.0 / self.fps

    @property
    def scale_to_native(self) -> float:
        """Multiplier from simulated pixels to 4K pixels (for MB/mJ reports)."""
        return (NATIVE_WIDTH * NATIVE_HEIGHT) / float(self.width * self.height)


@dataclass(frozen=True)
class PowerStateConfig:
    """The SoC power states available to the VD (paper Fig. 2a).

    ``p_active`` power depends on the operating frequency and lives in
    :class:`DecoderConfig`; this class holds the idle and sleep states
    plus the transition cost table.  Transition *latency* is paid when
    waking (S -> P); transition *energy* covers the full round trip.
    """

    p_idle_power: float = 320 * MW  # powered-on but not decoding ("short slack")
    s1_power: float = 50 * MW
    s3_power: float = 3 * MW
    s1_wake_latency: float = 0.8 * MS
    s3_wake_latency: float = 1.6 * MS
    s1_transition_energy: float = 0.45e-3  # J per round trip
    s3_transition_energy: float = 1.2e-3  # J per round trip

    #: Transitions to/from the boosted P-state cost more (the paper's
    #: Fig. 4c: "the energy in transitions increases ... because the
    #: operating frequency is increased").  Applied when racing.
    racing_transition_factor: float = 2.6

    def __post_init__(self) -> None:
        _require(self.s3_power <= self.s1_power <= self.p_idle_power,
                 "deeper states must consume less power")
        _require(self.s1_wake_latency <= self.s3_wake_latency,
                 "deep sleep must be slower to wake")

    def sleep_breakeven(self, state: str) -> float:
        """Minimum slack (s) for which entering ``state`` saves energy.

        Sleeping for ``t`` instead of idling saves
        ``t * (p_idle - p_state) - transition_energy``; the breakeven also
        must cover the wake latency so the next frame is not delayed.
        """
        if state == "S1":
            energy_breakeven = self.s1_transition_energy / (
                self.p_idle_power - self.s1_power)
            return max(energy_breakeven, self.s1_wake_latency)
        if state == "S3":
            energy_breakeven = self.s3_transition_energy / (
                self.p_idle_power - self.s3_power)
            return max(energy_breakeven, self.s3_wake_latency)
        raise ConfigError(f"unknown sleep state: {state!r}")


@dataclass(frozen=True)
class DecoderConfig:
    """Hardware video decoder (VD) timing and power (Table 2)."""

    low_freq: float = 150 * MHZ
    high_freq: float = 300 * MHZ
    low_freq_power: float = 0.30 * W
    high_freq_power: float = 0.69 * W
    power_states: PowerStateConfig = field(default_factory=PowerStateConfig)

    # Decode-work model: cycles = base + per-frame cycles by type,
    # scaled by the frame's complexity multiplier.  Per-*frame* (not
    # per-block) so decode time models the real 4K stream regardless of
    # the scaled simulation resolution.  Calibrated so that at 150 MHz
    # the frame-time CDF reproduces the paper's Fig. 2b region mix
    # (~4 % drops / 12 % short-slack / 37 % S1 / 40 % S3).
    cycles_per_frame_i: float = 2.333e6
    cycles_per_frame_p: float = 1.980e6
    cycles_per_frame_b: float = 1.882e6
    base_cycles: float = 24000.0

    # Reference-read traffic model: P/B motion compensation re-reads
    # this fraction of a frame's lines from the reference buffers; the
    # conventional VD cache absorbs ``ref_cache_hit_rate`` of them
    # (Fig. 7a: compute-phase accesses cache well).
    ref_read_fraction: float = 0.35
    ref_cache_hit_rate: float = 0.80

    def __post_init__(self) -> None:
        _require(self.low_freq < self.high_freq, "low frequency must be lower")
        _require(self.low_freq_power < self.high_freq_power,
                 "higher frequency must cost more power")

    def frequency(self, racing: bool) -> float:
        return self.high_freq if racing else self.low_freq

    def active_power(self, racing: bool) -> float:
        return self.high_freq_power if racing else self.low_freq_power


@dataclass(frozen=True)
class DramConfig:
    """LPDDR3 organization, timing, and calibrated energy (Table 2)."""

    channels: int = 2
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    row_bytes: int = 2048
    line_bytes: int = CACHE_LINE_BYTES
    io_freq: float = 800 * MHZ  # 1.6 GT/s DDR
    t_cl: float = 12 * NS
    t_rp: float = 18 * NS
    t_rcd: float = 18 * NS

    #: Effective row-buffer hold time under multi-master contention:
    #: the controller "can hold a row up to a limited time-duration to
    #: avoid starving requests to other rows" (paper Sec. 3.2, Fig. 5a).
    #: The value is chosen between the VD's per-line intervals at
    #: 150 MHz (~34 ns) and 300 MHz (~17 ns), which is precisely what
    #: makes the low-frequency decoder lose its rows between accesses
    #: while the racing decoder keeps them — the paper's Fig. 5a.
    row_max_open: float = 26 * NS

    #: FR-FCFS-style scheduling window: requests arriving within the
    #: same quantum are served row-hit-first, so concurrent streams do
    #: not thrash a bank at single-access granularity.  0 disables the
    #: batching (strict arrival order).
    scheduler_quantum: float = 600 * NS

    # Calibrated energy constants (see module docstring).
    act_pre_energy: float = 20e-9  # J per activate+precharge pair
    burst_energy: float = 2.35e-9  # J per 64-byte read or write burst
    background_power: float = 115 * MW

    #: Self-refresh power as a fraction of active background power
    #: (LPDDR3 datasheets put IDD6 at roughly 1/10th of IDD3N).  Used
    #: when a PSR-capable panel lets the DRAM sleep during pauses.
    self_refresh_fraction: float = 0.12

    def __post_init__(self) -> None:
        _require(self.channels >= 1 and self.banks_per_rank >= 1,
                 "need at least one channel and bank")
        _require(0.0 <= self.self_refresh_fraction <= 1.0,
                 "self-refresh fraction must be in [0, 1]")
        for name in ("row_bytes", "line_bytes"):
            value = getattr(self, name)
            _require(value > 0 and value & (value - 1) == 0,
                     f"{name} must be a power of two")
        _require(self.line_bytes <= self.row_bytes, "line must fit in a row")

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def lines_per_row(self) -> int:
        return self.row_bytes // self.line_bytes


@dataclass(frozen=True)
class DisplayConfig:
    """Display controller (DC) parameters (Table 2)."""

    refresh_hz: float = 60.0
    power: float = 0.12 * W
    display_cache_bytes: int = kib(16)
    display_cache_static_power: float = 3.6 * MW
    display_cache_dynamic_power: float = 0.5 * MW

    def __post_init__(self) -> None:
        _require(self.refresh_hz > 0, "refresh rate must be positive")

    @property
    def refresh_interval(self) -> float:
        return 1.0 / self.refresh_hz

    def scaled_cache_bytes(self, video: "VideoConfig",
                           line_bytes: int = CACHE_LINE_BYTES) -> int:
        """Display-cache capacity scaled to the sim resolution.

        Same rationale as :meth:`MachConfig.scaled_for`: 16 KB against a
        24 MB 4K frame becomes a proportionally smaller cache against a
        scaled frame, floored at 16 lines (1 KB at 64-byte lines) and
        rounded down to a power of two.  The floor binds at the default
        sizes: 16 KB scales to about 41 bytes, so the default cache is
        16 lines.
        """
        ratio = 1.0 / video.scale_to_native
        if ratio >= 1.0:
            return self.display_cache_bytes
        lines = max(16, int(round(self.display_cache_bytes * ratio / line_bytes)))
        lines = 1 << (lines.bit_length() - 1)
        return lines * line_bytes


@dataclass(frozen=True)
class MachConfig:
    """MACH content cache at the VD plus the DC-side MACH buffer."""

    num_machs: int = 8  # one per recent frame (paper picks 8)
    entries_per_mach: int = 256
    ways: int = 4
    digest_scheme: str = "crc32"
    use_gradient: bool = True  # gab (True) vs mab (False) tagging
    pointer_bytes: int = 4
    base_bytes: int = BYTES_PER_PIXEL  # gab base = first pixel (3 bytes)
    coalescing: bool = True

    # CO-MACH deep-hashing extension (paper Sec. 6.3).
    co_mach: bool = False
    co_mach_entries: int = 256

    # MACH buffer at the display controller.
    buffer_entries: int = 2048

    # Table 2 power numbers (CACTI-derived in the paper).
    mach_static_power: float = 1.9 * MW
    mach_dynamic_power: float = 3.8 * MW
    buffer_static_power: float = 24 * MW
    buffer_dynamic_power: float = 1.4 * MW
    co_mach_extra_power: float = 1.4 * MW

    def __post_init__(self) -> None:
        _require(self.num_machs >= 1, "need at least one MACH")
        _require(self.entries_per_mach % self.ways == 0,
                 "entries must divide into ways")
        sets = self.entries_per_mach // self.ways
        _require(sets & (sets - 1) == 0, "MACH set count must be a power of two")

    @property
    def sets_per_mach(self) -> int:
        return self.entries_per_mach // self.ways

    @property
    def total_entries(self) -> int:
        return self.num_machs * self.entries_per_mach

    def scaled_for(self, video: "VideoConfig") -> "MachConfig":
        """Capacity-scale the MACH structures to the sim resolution.

        The paper sizes MACH (8 x 256 entries), the MACH buffer (2 K
        entries), and the display cache (16 KB) against 4K frames of
        ~518 K blocks.  A scaled simulation has proportionally fewer
        distinct blocks per frame, so keeping the *absolute* capacities
        would remove all cache pressure; instead the entry counts are
        scaled by the block ratio (rounded to power-of-two set counts),
        preserving the capacity-to-content ratio that the paper's
        realized match rates depend on.
        """
        ratio = 1.0 / video.scale_to_native
        if ratio >= 1.0:
            return self

        def scale_entries(entries: int, minimum: int) -> int:
            scaled = max(minimum, int(round(entries * ratio)))
            sets = max(1, scaled // self.ways)
            sets = 1 << (sets.bit_length() - 1)  # round down to pow2
            return sets * self.ways

        scaled_entries = scale_entries(self.entries_per_mach, 8 * self.ways)
        # The paper sizes the MACH buffer to hold every dumped entry
        # (2 K = 8 x 256); preserve that relation after scaling.
        scaled_buffer = max(self.num_machs * scaled_entries,
                            int(round(self.buffer_entries * ratio)))
        return replace(
            self,
            entries_per_mach=scaled_entries,
            buffer_entries=scaled_buffer,
            co_mach_entries=scale_entries(self.co_mach_entries, self.ways),
        )


#: Default DASH-style bitrate ladder for 4K-native content (rungs are
#: 1.5 / 4 / 8 / 16 / 30 megabits per second, stored as bytes/s).
DEFAULT_LADDER = tuple(x * MBPS for x in (1.5, 4.0, 8.0, 16.0, 30.0))


@dataclass(frozen=True)
class RadioConfig:
    """Modem power-state machine (LTE RRC/DRX-shaped, Table-less).

    The modem is **active** while bits flow, holds a high-power
    **tail** for ``tail_seconds`` after the last bit (the inactivity
    timer), then demotes to **idle**; promotion back out of idle costs
    latency and energy.  Defaults are in the range LTE measurement
    studies report (~1.1 W active, ~0.6 W tail, ~10 mW idle, ~260 ms
    promotion).
    """

    active_power: float = 1.10 * W
    tail_power: float = 0.62 * W
    idle_power: float = 12 * MW
    tail_seconds: float = 2.5
    promotion_latency: float = 0.26  # s per idle -> active promotion
    promotion_energy: float = 0.55  # J per idle -> active promotion

    def __post_init__(self) -> None:
        _require(self.idle_power <= self.tail_power <= self.active_power,
                 "deeper radio states must consume less power")
        _require(self.tail_seconds >= 0, "tail timer cannot be negative")
        _require(self.promotion_latency >= 0 and self.promotion_energy >= 0,
                 "promotion costs cannot be negative")


@dataclass(frozen=True)
class NetworkConfig:
    """Streaming-source model.

    Two modes:

    * ``mode="chunked"`` (legacy) — the arithmetic stub: a fixed
      pre-roll plus periodic chunk deliveries, no bandwidth
      variability and no radio energy.  The paper observes YouTube
      buffering every 400-500 ms; the default delivers half a second
      of frames every half second.
    * ``mode="trace"`` — the full delivery model
      (:mod:`repro.network`): segments fetched over a bandwidth trace
      under an ABR policy, with stalls emerging from playback-buffer
      occupancy and the modem's burst energy accounted by
      :class:`RadioConfig`.
    """

    chunk_interval: float = 0.45  # s between deliveries (chunked mode)
    preroll_frames: int = 120  # frames buffered before playback starts
    max_buffered_frames: int = 600

    # -- delivery-model (mode="trace") parameters -----------------------
    mode: str = "chunked"  # 'chunked' | 'trace'
    trace_kind: str = "lte"  # 'constant' | 'lte' | 'step' | 'file'
    trace_path: Optional[str] = None  # for trace_kind == 'file'
    mean_bandwidth: float = 24 * MBPS  # bytes/s, synthetic generators
    trace_seed: int = 1
    segment_seconds: float = 1.0
    ladder: Tuple[float, ...] = DEFAULT_LADDER  # bytes/s, ascending
    abr: str = "bba"  # 'fixed' | 'rate' | 'bba'
    abr_fixed_rung: int = 0  # rung for abr == 'fixed'
    download_mode: str = "burst"  # 'steady' | 'burst'
    low_watermark_seconds: float = 3.0  # burst mode: refill trigger
    radio: RadioConfig = field(default_factory=RadioConfig)

    def __post_init__(self) -> None:
        _require(self.chunk_interval > 0, "chunk interval must be positive")
        _require(self.preroll_frames >= 1, "need at least one pre-rolled frame")
        _require(self.preroll_frames <= self.max_buffered_frames,
                 "pre-roll cannot exceed the buffer capacity")
        _require(self.mode in ("chunked", "trace"),
                 f"unknown network mode: {self.mode!r}")
        _require(self.trace_kind in ("constant", "lte", "step", "file"),
                 f"unknown trace kind: {self.trace_kind!r}")
        if self.trace_kind == "file":
            _require(self.trace_path is not None,
                     "trace_kind='file' needs a trace_path")
        _require(self.mean_bandwidth > 0, "mean bandwidth must be positive")
        _require(self.segment_seconds > 0,
                 "segment duration must be positive")
        _require(len(self.ladder) >= 1 and self.ladder[0] > 0
                 and all(b > a for a, b in zip(self.ladder, self.ladder[1:])),
                 "ladder must be ascending and positive")
        _require(self.abr in ("fixed", "rate", "bba"),
                 f"unknown ABR policy: {self.abr!r}")
        _require(0 <= self.abr_fixed_rung < len(self.ladder),
                 "fixed ABR rung must index the ladder")
        _require(self.download_mode in ("steady", "burst"),
                 f"unknown download mode: {self.download_mode!r}")
        _require(self.low_watermark_seconds >= 0,
                 "low watermark cannot be negative")

    def buffer_seconds(self, fps: float) -> float:
        """Playback-buffer capacity in content seconds."""
        return self.max_buffered_frames / fps

    def preroll_seconds(self, fps: float) -> float:
        """Startup pre-roll in content seconds."""
        return self.preroll_frames / fps


@dataclass(frozen=True)
class FaultConfig:
    """Fault injection rates and the resilience knobs that absorb them.

    All rates default to zero, so a default ``FaultConfig`` is inert:
    every code path that consults it reproduces the fault-free
    behaviour bit-for-bit.  Injection is driven by a pure-function
    schedule (:class:`repro.faults.FaultPlan`) seeded by ``seed``, so
    two runs with the same config see byte-identical faults.

    Injection knobs:

    * ``segment_loss`` — probability a segment download attempt dies
      mid-transfer (the bytes already moved still cost radio energy);
    * ``segment_corruption`` — probability a fully downloaded segment
      fails its checksum on arrival and must be re-fetched;
    * ``segment_timeout_rate`` — probability a download hangs until
      the per-attempt timeout expires;
    * ``block_bit_error`` — per-*bit* error rate in decoded
      macroblocks (a 48-byte block flips with ~384x this rate);
    * ``digest_collision`` — per-lookup probability that a MACH match
      is actually a hash collision pointing at the wrong content;
    * ``packet_loss`` — realtime mode only: per-packet erasure rate on
      top of whatever the bottleneck queue drops emergently (models
      radio-layer losses past the bottleneck; the packet still
      traverses the queue, so for a given send pattern injection
      composes without perturbing which packets the queue drops —
      closed-loop, the congestion controller reacts to the extra
      loss exactly as a real sender would).

    Resilience knobs:

    * ``max_retries`` / ``retry_backoff`` / ``segment_timeout`` — the
      delivery retry loop: exponential backoff between attempts, a
      wall-clock cap per attempt, and a bounded attempt count after
      which the segment is abandoned (played as a concealed freeze);
    * ``panic_after_failures`` — consecutive failed attempts before
      the ABR panics down to the lowest ladder rung;
    * ``verify_digests`` — MACH integrity fallback: a detected
      collision stores the full block instead of a wrong pointer, so
      content caching is never silently incorrect.
    """

    segment_loss: float = 0.0
    segment_corruption: float = 0.0
    segment_timeout_rate: float = 0.0
    block_bit_error: float = 0.0
    digest_collision: float = 0.0
    packet_loss: float = 0.0  # realtime mode: per-packet erasure rate
    seed: int = 0

    max_retries: int = 3
    retry_backoff: float = 0.25  # s; doubles per failed attempt
    segment_timeout: float = 20.0  # s per download attempt
    panic_after_failures: int = 2
    verify_digests: bool = True

    def __post_init__(self) -> None:
        for name in ("segment_loss", "segment_corruption",
                     "segment_timeout_rate", "digest_collision",
                     "packet_loss"):
            value = getattr(self, name)
            _require(0.0 <= value <= 1.0, f"{name} must be in [0, 1]")
        _require(self.segment_loss + self.segment_corruption
                 + self.segment_timeout_rate <= 1.0,
                 "segment fault rates must sum to at most 1")
        _require(0.0 <= self.block_bit_error <= 1.0,
                 "block_bit_error must be in [0, 1]")
        _require(self.max_retries >= 0, "max_retries cannot be negative")
        _require(self.retry_backoff >= 0, "retry_backoff cannot be negative")
        _require(self.segment_timeout > 0, "segment_timeout must be positive")
        _require(self.panic_after_failures >= 1,
                 "panic_after_failures must be >= 1")

    @property
    def injects_delivery(self) -> bool:
        return (self.segment_loss > 0 or self.segment_corruption > 0
                or self.segment_timeout_rate > 0)

    @property
    def enabled(self) -> bool:
        """Any non-zero injection rate (resilience knobs alone are inert)."""
        return (self.injects_delivery or self.block_bit_error > 0
                or self.digest_collision > 0 or self.packet_loss > 0)


@dataclass(frozen=True)
class ThermalConfig:
    """Thermal / power-budget pressure on the VD boost clock.

    Default-disabled and fully inert: with ``enabled=False`` every code
    path that consults it reproduces the thermal-free behaviour
    bit-for-bit.  When enabled, a lumped-RC junction-temperature model
    (:class:`repro.thermal.ThermalModel`) is driven by the per-phase
    power the pipeline already tracks, and the boost frequency is
    revoked while the junction is hot or the sustained-power EMA sits
    above ``sustained_power_cap`` — plus ``FaultPlan``-style injected
    throttle events seeded by ``seed``.

    Injection knobs (all rates default to zero):

    * ``cap_drop_rate`` / ``cap_drop_duty`` — per ``event_interval``
      slot, probability that the platform revokes boost for
      ``cap_drop_duty`` of the slot.  Windows nest: a higher duty
      strictly contains the lower-duty window for the same (seed,
      slot), so throttle pressure is structurally monotone in duty.
    * ``stuck_dvfs_rate`` — probability a slot pins DVFS at nominal
      even after the governor requests boost (firmware stuck-at).
    * ``delayed_transition_rate`` / ``transition_delay`` — probability
      a sleep wake-up in the slot pays ``transition_delay`` extra
      before the decoder can run (slow frequency ramp).

    The governor response lives in
    :class:`repro.core.race_to_sleep.AdaptiveRtSGovernor`; set
    ``adaptive=False`` to keep the fixed-plan governor under the same
    injected pressure (the degradation baseline).
    """

    enabled: bool = False
    adaptive: bool = True

    # -- lumped-RC junction model --------------------------------------
    ambient_c: float = 30.0  # deg C ambient / skin-coupled sink
    thermal_resistance: float = 18.0  # K/W junction -> ambient
    thermal_capacitance: float = 0.9  # J/K lumped thermal mass
    throttle_temp_c: float = 70.0  # deg C: revoke boost at/above this
    release_temp_c: float = 65.0  # deg C: restore boost at/below this

    # -- sustained-power cap -------------------------------------------
    sustained_power_cap: float = 0.0  # W over cap_window EMA; 0 = off
    cap_window: float = 4.0  # s EMA time constant

    # -- injected throttle events --------------------------------------
    seed: int = 0
    event_interval: float = 2.0  # s per injection decision slot
    cap_drop_rate: float = 0.0
    cap_drop_duty: float = 0.5
    stuck_dvfs_rate: float = 0.0
    delayed_transition_rate: float = 0.0
    transition_delay: float = 8.0 * MS  # s extra latency per affected wake

    def __post_init__(self) -> None:
        _require(self.thermal_resistance > 0 and self.thermal_capacitance > 0,
                 "thermal RC constants must be positive")
        _require(self.release_temp_c <= self.throttle_temp_c,
                 "hysteresis release must not exceed the throttle trip")
        _require(self.ambient_c < self.throttle_temp_c,
                 "ambient must sit below the throttle trip")
        _require(self.sustained_power_cap >= 0,
                 "sustained power cap cannot be negative")
        _require(self.cap_window > 0, "cap window must be positive")
        _require(self.event_interval > 0, "event interval must be positive")
        for name in ("cap_drop_rate", "cap_drop_duty", "stuck_dvfs_rate",
                     "delayed_transition_rate"):
            value = getattr(self, name)
            _require(0.0 <= value <= 1.0, f"{name} must be in [0, 1]")
        _require(self.transition_delay >= 0,
                 "transition delay cannot be negative")

    @property
    def injects(self) -> bool:
        """Any non-zero injected-event rate."""
        return (self.cap_drop_rate > 0 or self.stuck_dvfs_rate > 0
                or self.delayed_transition_rate > 0)


@dataclass(frozen=True)
class RealtimeConfig:
    """Live/interactive video mode: emergent-impairment link + recovery.

    Default-disabled and fully inert: with ``enabled=False`` nothing in
    the paper-mode pipeline consults this config, so results stay
    bit-identical to the pre-realtime tree.  When enabled,
    :mod:`repro.realtime` simulates a camera-to-display loop with a
    hard per-frame latency budget instead of a playback buffer:

    * a deterministic **bottleneck-queue link** (token-bucket service
      at ``link_rate``, a finite ``queue_bytes`` buffer with droptail
      and RED-style early drops, ``propagation_delay`` each way) so
      loss and queueing delay are *emergent* from offered load —
      ``FaultConfig.packet_loss`` injection composes on top;
    * a **delay/loss congestion controller** (GCC-style queue-delay
      gradient plus loss backoff) pacing the per-frame send rate;
    * per-frame **FEC (XOR parity groups) vs bounded retransmission**,
      chosen against the deadline when ``recovery="adaptive"``;
    * a **deadline-miss degradation ladder**
      (:class:`repro.core.race_to_sleep.DeadlineLadder`):
      nominal → downscale → freeze → skip, least-degraded-first.

    ``rate_schedule`` / ``delay_schedule`` are piecewise-constant
    impairment timelines: ``(t, x)`` pairs meaning "from time ``t``,
    the link rate is scaled by ``x``" (resp. "``x`` seconds are added
    to the one-way propagation delay").  The chaos harness
    (:mod:`repro.realtime.chaos`) builds its regimes from these.
    """

    enabled: bool = False
    latency_budget: float = 0.150  # s capture-to-delivery deadline
    mtu_bytes: int = 1200  # payload bytes per packet

    # -- bottleneck link ----------------------------------------------
    link_rate: float = 8 * MBPS  # bytes/s bottleneck service rate
    queue_bytes: int = 96_000  # bottleneck buffer depth in bytes
    propagation_delay: float = 0.020  # s one-way, queue excluded
    red_min_fill: float = 0.55  # queue fill where early drop starts
    red_max_fill: float = 0.95  # queue fill of max early-drop prob
    red_max_drop: float = 0.25  # early-drop prob at red_max_fill
    rate_schedule: Tuple[Tuple[float, float], ...] = ()  # (s, multiplier)
    delay_schedule: Tuple[Tuple[float, float], ...] = ()  # (s, extra s)

    # -- congestion controller ----------------------------------------
    start_rate: float = 4 * MBPS  # bytes/s initial send rate
    min_rate: float = 0.4 * MBPS  # bytes/s controller floor
    max_rate: float = 20 * MBPS  # bytes/s controller ceiling
    gradient_threshold: float = 1.5 * MS  # s/frame queue-delay slope trip
    delay_target: float = 0.040  # s standing queue delay that trips backoff
    increase_factor: float = 1.04  # multiplicative probe when clear
    decrease_factor: float = 0.85  # multiplicative overuse backoff
    loss_threshold: float = 0.05  # loss fraction that forces backoff

    # -- recovery -----------------------------------------------------
    recovery: str = "adaptive"  # 'fec' | 'retx' | 'adaptive'
    fec_group: int = 8  # data packets per XOR parity group
    max_retx: int = 2  # retransmission attempts per lost packet
    retx_rtt_factor: float = 0.5  # extra RTTs of backoff per re-attempt

    # -- degradation ladder -------------------------------------------
    ladder: bool = True
    downscale_factor: float = 0.55  # frame-bytes factor at 'downscale'
    freeze_fraction: float = 0.06  # frame-bytes factor at 'freeze'

    seed: int = 0  # seeds emergent RED drops and size jitter

    def __post_init__(self) -> None:
        _require(self.latency_budget > 0, "latency budget must be positive")
        _require(self.mtu_bytes >= 64, "mtu_bytes must be >= 64")
        _require(self.link_rate > 0, "link rate must be positive")
        _require(self.queue_bytes >= self.mtu_bytes,
                 "queue must hold at least one packet")
        _require(self.propagation_delay >= 0,
                 "propagation delay cannot be negative")
        _require(0.0 <= self.red_min_fill < self.red_max_fill <= 1.0,
                 "need 0 <= red_min_fill < red_max_fill <= 1")
        _require(0.0 <= self.red_max_drop <= 1.0,
                 "red_max_drop must be in [0, 1]")
        for name in ("rate_schedule", "delay_schedule"):
            schedule = getattr(self, name)
            times = [t for t, _ in schedule]
            _require(times == sorted(times) and all(t >= 0 for t in times),
                     f"{name} times must be sorted and non-negative")
        _require(all(x >= 0 for _, x in self.rate_schedule),
                 "rate multipliers cannot be negative")
        _require(all(x >= 0 for _, x in self.delay_schedule),
                 "extra delays cannot be negative")
        _require(0 < self.min_rate <= self.start_rate <= self.max_rate,
                 "need 0 < min_rate <= start_rate <= max_rate")
        _require(self.gradient_threshold > 0,
                 "gradient threshold must be positive")
        _require(self.delay_target > 0,
                 "delay target must be positive")
        _require(self.increase_factor >= 1.0,
                 "increase factor must be >= 1")
        _require(0.0 < self.decrease_factor < 1.0,
                 "decrease factor must be in (0, 1)")
        _require(0.0 < self.loss_threshold <= 1.0,
                 "loss threshold must be in (0, 1]")
        _require(self.recovery in ("fec", "retx", "adaptive"),
                 f"unknown recovery mode: {self.recovery!r}")
        _require(self.fec_group >= 1, "fec_group must be >= 1")
        _require(self.max_retx >= 0, "max_retx cannot be negative")
        _require(self.retx_rtt_factor >= 0,
                 "retx_rtt_factor cannot be negative")
        _require(0.0 < self.freeze_fraction < self.downscale_factor < 1.0,
                 "need 0 < freeze_fraction < downscale_factor < 1")


@dataclass(frozen=True)
class SchemeConfig:
    """One of the paper's evaluated schemes (Fig. 11 legend).

    ``batch_size`` = 1 disables batching; ``racing`` selects the high VD
    frequency; ``content_cache`` is ``None`` / ``"mab"`` / ``"gab"``;
    ``display_caching`` enables the display cache + MACH buffer; ``dcc``
    stacks intra-block delta colour compression on the write path.
    """

    name: str
    batch_size: int = 1
    racing: bool = False
    content_cache: str | None = None
    display_caching: bool = False
    dcc: bool = False

    def __post_init__(self) -> None:
        _require(self.batch_size >= 1, "batch size must be >= 1")
        _require(self.content_cache in (None, "mab", "gab"),
                 f"unknown content cache mode: {self.content_cache!r}")
        if self.display_caching:
            _require(self.content_cache is not None,
                     "display caching requires MACH on the VD side")

    @property
    def uses_mach(self) -> bool:
        return self.content_cache is not None


@dataclass(frozen=True)
class PaperCalibration:
    """Calibrated knobs that tie emergent behaviour to the paper's shape.

    See DESIGN.md section 5 for the target list.  These are *not* free
    parameters tweaked per experiment — they are fixed here once and
    every benchmark runs with them.
    """

    # Spread of the per-frame complexity multiplier (lognormal sigma),
    # which fans frame decode times into the paper's region I-IV mix.
    complexity_sigma: float = 0.12

    # Background (non-video) memory traffic, as a fraction of the
    # video-path line rate; models CPU/GPU masters that steal rows.
    other_traffic_fraction: float = 0.07

    # The DC scans the frame buffer over this fraction of the refresh
    # interval (the blanking interval takes the rest).
    display_scan_duty: float = 0.85


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level configuration for an end-to-end run."""

    video: VideoConfig = field(default_factory=VideoConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    display: DisplayConfig = field(default_factory=DisplayConfig)
    mach: MachConfig = field(default_factory=MachConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    thermal: ThermalConfig = field(default_factory=ThermalConfig)
    realtime: RealtimeConfig = field(default_factory=RealtimeConfig)
    calibration: PaperCalibration = field(default_factory=PaperCalibration)
    seed: int = 0

    def with_scheme_mach(self, scheme: SchemeConfig) -> MachConfig:
        """MACH configuration adjusted for ``scheme`` (mab vs gab)."""
        if scheme.content_cache is None:
            return self.mach
        return replace(self.mach, use_gradient=scheme.content_cache == "gab")


# --- the six schemes of Fig. 11 ---------------------------------------

BASELINE = SchemeConfig(name="Baseline")
BATCHING = SchemeConfig(name="Batching", batch_size=16)
RACING = SchemeConfig(name="Racing", racing=True)
RACE_TO_SLEEP = SchemeConfig(name="Race-to-Sleep", batch_size=16, racing=True)
MAB = SchemeConfig(name="MAB", batch_size=16, racing=True,
                   content_cache="mab", display_caching=True)
GAB = SchemeConfig(name="GAB", batch_size=16, racing=True,
                   content_cache="gab", display_caching=True)
GAB_DCC = SchemeConfig(name="GAB+DCC", batch_size=16, racing=True,
                       content_cache="gab", display_caching=True, dcc=True)
DCC_ONLY = SchemeConfig(name="DCC", batch_size=16, racing=True, dcc=True)

#: The evaluation order used by Fig. 11 (L, B, R, S, M, G).
FIG11_SCHEMES = (BASELINE, BATCHING, RACING, RACE_TO_SLEEP, MAB, GAB)
