"""Seeded, deterministic fault injection (the chaos half of resilience).

Real handheld streaming survives lossy radios and bit errors; the
simulator's perfect-world pipeline never exercised the machinery that
absorbs them.  This module supplies the *injection* side: a
:class:`FaultPlan` that answers, as a pure function of ``(seed, site,
indices)``, whether a given event is faulted.

Determinism is the design center.  Faults are **not** drawn from a
shared stateful RNG — that would make the schedule depend on call
order, so adding one lookup anywhere would reshuffle every fault after
it.  Instead each decision hashes its coordinates (fault site, segment
or frame index, attempt or block index) together with the seed through
a splitmix64 mixer and converts the result to a uniform in ``[0, 1)``.
Two runs with the same :class:`~repro.config.FaultConfig` therefore
see byte-identical faults regardless of how the surrounding simulation
evolves, and ``fault_rate=0`` plans are exactly inert.

The *resilience* consumers live where the faults strike:

* :mod:`repro.network.delivery` — retry with exponential backoff,
  per-attempt timeouts, ABR panic-down, bounded abandonment;
* :mod:`repro.core.pipeline` — macroblock error concealment
  (:func:`conceal_blocks`), counting concealed blocks and their extra
  reference-read traffic;
* :mod:`repro.core.writeback` — MACH digest verification that falls
  back to a full block store on an injected collision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .config import FaultConfig
from .errors import FaultError

# Fault-site discriminators mixed into the hash so the same index never
# correlates across sites (a lost segment 7 says nothing about frame 7).
_SITE_SEGMENT = 0x5E67
_SITE_LOSS_FRACTION = 0x10F5
_SITE_BLOCK = 0xB10C
_SITE_COLLISION = 0xC011
_SITE_PACKET = 0x9ACF
_SITE_STRIPE_FAULT = 0x57A1
_SITE_STRIPE_SLOW = 0x57A2

_MASK64 = (1 << 64) - 1
#: 2**-53 — maps the top 53 bits of a hash to a uniform in [0, 1).
_INV_2_53 = 1.0 / (1 << 53)


def _splitmix64(x: int) -> int:
    """One splitmix64 finalization round (Steele et al.)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _hash_u01(seed: int, site: int, *indices: int) -> float:
    """Uniform in [0, 1) from hashed coordinates — pure and order-free."""
    state = _splitmix64((seed ^ (site << 32)) & _MASK64)
    for index in indices:
        state = _splitmix64((state ^ index) & _MASK64)
    return (state >> 11) * _INV_2_53


#: Public alias for sibling injection schedules (:mod:`repro.thermal`
#: draws its throttle events from the same order-free mixer so thermal
#: and fault plans share one determinism story).
hash_u01 = _hash_u01


def _hash_u01_vector(seed: int, site: int, index: int,
                     count: int) -> np.ndarray:
    """Vectorized ``_hash_u01`` over ``count`` sub-indices (numpy u64)."""
    base = np.uint64(_splitmix64(
        _splitmix64((seed ^ (site << 32)) & _MASK64) ^ index))
    x = base ^ np.arange(count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * _INV_2_53


class SegmentFault(Enum):
    """What an injected delivery fault does to a download attempt."""

    LOSS = "loss"  # transfer dies partway; partial radio time wasted
    CORRUPT = "corrupt"  # full transfer, checksum fails on arrival
    TIMEOUT = "timeout"  # the download hangs until the attempt timeout


@dataclass(frozen=True)
class FaultPlan:
    """A pure-function fault schedule derived from a :class:`FaultConfig`.

    Every query is deterministic in ``(config.seed, site, indices)``;
    the plan holds no mutable state and can be shared freely across
    delivery, decode, and writeback.
    """

    config: FaultConfig

    @classmethod
    def from_config(cls, config: FaultConfig) -> Optional["FaultPlan"]:
        """A plan for ``config``, or ``None`` when injection is off."""
        return cls(config) if config.enabled else None

    # -- delivery ---------------------------------------------------------

    def segment_fault(self, segment_index: int,
                      attempt: int) -> Optional[SegmentFault]:
        """Fault (if any) striking download ``attempt`` of a segment."""
        cfg = self.config
        if not cfg.injects_delivery:
            return None
        u = _hash_u01(cfg.seed, _SITE_SEGMENT, segment_index, attempt)
        if u < cfg.segment_loss:
            return SegmentFault.LOSS
        if u < cfg.segment_loss + cfg.segment_corruption:
            return SegmentFault.CORRUPT
        if u < (cfg.segment_loss + cfg.segment_corruption
                + cfg.segment_timeout_rate):
            return SegmentFault.TIMEOUT
        return None

    def loss_fraction(self, segment_index: int, attempt: int) -> float:
        """How far through the transfer a LOSS fault strikes, in (0, 1)."""
        u = _hash_u01(self.config.seed, _SITE_LOSS_FRACTION,
                      segment_index, attempt)
        return 0.05 + 0.90 * u  # never exactly 0 or 1

    def packet_lost(self, frame_index: int, packet_index: int,
                    attempt: int) -> bool:
        """Injected erasure of one realtime packet (past the bottleneck).

        Keyed on ``(frame, packet, attempt)`` so the draw is
        order-free: retransmissions of the same packet re-roll, and
        composing with emergent queue loss cannot reshuffle the
        schedule (the emergent drops use the realtime seed and a
        different site, not this plan).
        """
        rate = self.config.packet_loss
        if rate <= 0.0:
            return False
        return _hash_u01(self.config.seed, _SITE_PACKET, frame_index,
                         packet_index, attempt) < rate

    # -- decode -----------------------------------------------------------

    def corrupt_block_indices(self, frame_index: int, n_blocks: int,
                              block_bytes: int) -> np.ndarray:
        """Indices of macroblocks hit by bit errors in one frame.

        ``block_bit_error`` is a per-bit rate; a block of ``b`` bytes
        is corrupted with probability ``1 - (1 - p)**(8 b)``.
        """
        ber = self.config.block_bit_error
        if ber <= 0.0 or n_blocks <= 0:
            return np.empty(0, dtype=np.int64)
        p_block = 1.0 - (1.0 - ber) ** (8 * block_bytes)
        u = _hash_u01_vector(self.config.seed, _SITE_BLOCK, frame_index,
                             n_blocks)
        return np.flatnonzero(u < p_block).astype(np.int64)

    # -- MACH -------------------------------------------------------------

    def digest_collisions(self, frame_index: int,
                          n_blocks: int) -> np.ndarray:
        """Per block of a frame: is its MACH match, if it has one,
        actually an injected hash collision?"""
        u = _hash_u01_vector(self.config.seed, _SITE_COLLISION, frame_index,
                             n_blocks)
        return u < self.config.digest_collision


class ShardFault(Enum):
    """What an injected shard fault does to one stripe attempt."""

    CRASH = "crash"  # worker process dies after compute, before reply
    STALL = "stall"  # worker stops heartbeating; lease must revoke it
    CORRUPT = "corrupt"  # partial arrives with a mutated payload
    SLOW = "slow"  # worker finishes correctly, but late (straggler)


@dataclass(frozen=True)
class ShardFaultConfig:
    """Rates and shape of an injected shard-fault campaign.

    The four rates are cumulative-threshold probabilities per stripe
    *attempt* (a retried stripe re-rolls); their sum must stay <= 1.
    ``max_faulty_attempts`` bounds injection to the first N attempts of
    each stripe, so a run with ``max_retries >= max_faulty_attempts``
    is guaranteed to eventually complete — chaos tests assert on the
    *result* of a finished run, not on livelocks.
    """

    crash_rate: float = 0.0
    stall_rate: float = 0.0
    corrupt_rate: float = 0.0
    slow_rate: float = 0.0
    slow_seconds: float = 0.5
    max_faulty_attempts: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        rates = (self.crash_rate, self.stall_rate, self.corrupt_rate,
                 self.slow_rate)
        if any(rate < 0.0 for rate in rates):
            raise FaultError(f"shard fault rates must be >= 0, got {rates}")
        if sum(rates) > 1.0:
            raise FaultError(
                f"shard fault rates sum to {sum(rates)} > 1")
        if self.slow_seconds < 0.0:
            raise FaultError(
                f"slow_seconds must be >= 0, got {self.slow_seconds}")
        if self.max_faulty_attempts < 0:
            raise FaultError("max_faulty_attempts must be >= 0, got "
                             f"{self.max_faulty_attempts}")

    @property
    def enabled(self) -> bool:
        return (self.crash_rate + self.stall_rate + self.corrupt_rate
                + self.slow_rate) > 0.0


@dataclass(frozen=True)
class ShardFaultPlan:
    """Order-free fault schedule for supervised stripe execution.

    Like :class:`FaultPlan`, every decision is a pure splitmix64 hash
    of its coordinates — here ``(seed, site, phase, stripe, attempt)``
    — so which worker picks up a stripe, and in what order, cannot
    change which attempts are faulted.  The phase string is folded to
    an integer via its UTF-8 bytes so "load" and "score" attempts of
    the same stripe draw independently.
    """

    config: ShardFaultConfig

    @classmethod
    def from_config(cls, config: Optional[ShardFaultConfig]
                    ) -> Optional["ShardFaultPlan"]:
        """A plan for ``config``, or ``None`` when injection is off."""
        if config is None or not config.enabled:
            return None
        return cls(config)

    @staticmethod
    def _phase_index(phase: str) -> int:
        return int.from_bytes(phase.encode("utf-8"), "big") & _MASK64

    def stripe_fault(self, phase: str, stripe_id: int,
                     attempt: int) -> Optional[ShardFault]:
        """Fault (if any) injected into one stripe attempt."""
        cfg = self.config
        if attempt >= cfg.max_faulty_attempts:
            return None
        u = _hash_u01(cfg.seed, _SITE_STRIPE_FAULT,
                      self._phase_index(phase), stripe_id, attempt)
        if u < cfg.crash_rate:
            return ShardFault.CRASH
        if u < cfg.crash_rate + cfg.stall_rate:
            return ShardFault.STALL
        if u < cfg.crash_rate + cfg.stall_rate + cfg.corrupt_rate:
            return ShardFault.CORRUPT
        if u < (cfg.crash_rate + cfg.stall_rate + cfg.corrupt_rate
                + cfg.slow_rate):
            return ShardFault.SLOW
        return None

    def slow_seconds(self, phase: str, stripe_id: int,
                     attempt: int) -> float:
        """How long a SLOW fault delays this attempt (jittered in
        ``[0.5, 1.5) * config.slow_seconds``)."""
        u = _hash_u01(self.config.seed, _SITE_STRIPE_SLOW,
                      self._phase_index(phase), stripe_id, attempt)
        return self.config.slow_seconds * (0.5 + u)


def conceal_blocks(blocks: np.ndarray, corrupt: np.ndarray,
                   previous: Optional[np.ndarray]) -> int:
    """Conceal corrupted macroblocks in-place; returns the count.

    Temporal concealment copies the co-located block from the previous
    decoded frame (what hardware decoders do for a lost macroblock).
    Without a previous frame — the very first frame of a stream — the
    block is painted mid-gray, the standard "no reference" fallback.
    """
    if len(corrupt) == 0:
        return 0
    if corrupt.max(initial=-1) >= blocks.shape[0]:
        raise FaultError("corrupt block index beyond the frame")
    if previous is not None and previous.shape == blocks.shape:
        blocks[corrupt] = previous[corrupt]
    else:
        blocks[corrupt] = 128
    return int(len(corrupt))
