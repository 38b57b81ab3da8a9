"""Scalar oracles for the MACH write path and the DRAM row buffers.

The production write engine classifies a whole frame at once
(:meth:`repro.core.writeback.WritebackEngine._process_mach`).  This
module keeps the per-block walk it must reproduce bit for bit: a
:class:`FrameMach` of :class:`~repro.cache.SetAssociativeCache` sets
per frame, with the CO-MACH side cache of paper Sec. 6.3, consulted
block by block before the frozen ring (:class:`WalkRing`).
:class:`ScalarWritebackEngine` plays every frame through it, and the
``scalar_write_path`` fixture puts it under ``simulate``.

:class:`RowBufferModel` is the per-bank open-row state machine the
vectorised :class:`~repro.memory.MemoryController` must match.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Deque, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.cache import SetAssociativeCache
from repro.config import DramConfig, MachConfig
from repro.core.layout import LayoutMode, RecordKind
from repro.core.mach import FrozenMach, MachRing, MachStats
from repro.core.writeback import DigestGroups, FrameMatches, WritebackEngine
from repro import faults
from repro.errors import SchedulingError
from repro.faults import hash_u01


class MatchKind(Enum):
    """Where a block's content was found (Fig. 7b categories)."""

    INTRA = "intra"
    INTER = "inter"
    NONE = "none"


def record(stats: MachStats, kind: MatchKind, digest: int) -> None:
    """Count one block's outcome in ``stats``."""
    if kind is MatchKind.INTRA:
        stats.intra += 1
        stats.match_counter[digest] += 1
    elif kind is MatchKind.INTER:
        stats.inter += 1
        stats.match_counter[digest] += 1
    else:
        stats.none += 1


def frozen_table(frozen: FrozenMach) -> Dict[int, Tuple[int, int]]:
    """``digest -> (address, aux)`` of a frozen MACH."""
    return dict(zip(frozen.digests.tolist(),
                    zip(frozen.addresses.tolist(), frozen.aux.tolist())))


class FrameMach:
    """The MACH of the frame currently being decoded.

    ``unbounded=True`` replaces the set-associative structure with a
    plain dict — the capacity-free oracle used as the "optimal" bar in
    Fig. 9a.
    """

    def __init__(self, config: MachConfig, frame_index: int,
                 unbounded: bool = False) -> None:
        self.config = config
        self.frame_index = frame_index
        self.unbounded = unbounded
        if unbounded:
            self._dict: Optional[Dict[int, Tuple[int, int]]] = {}
            self._cache: Optional[SetAssociativeCache] = None
        else:
            self._dict = None
            self._cache = SetAssociativeCache(
                sets=config.sets_per_mach, ways=config.ways)
        self._co_mach: Optional[SetAssociativeCache] = None
        if config.co_mach and not unbounded:
            co_sets = max(1, config.co_mach_entries // config.ways)
            # Round the CO-MACH set count down to a power of two.
            co_sets = 1 << (co_sets.bit_length() - 1)
            self._co_mach = SetAssociativeCache(sets=co_sets, ways=config.ways)

    def lookup(self, digest: int, aux: int,
               stats: Optional[MachStats] = None) -> Optional[int]:
        """Find ``digest`` in this MACH; returns the block address or None.

        ``aux`` is the CRC16 auxiliary used for CO-MACH collision
        detection; pass 0 when the digest scheme has no aux bits.
        """
        if self._dict is not None:
            entry = self._dict.get(digest)
        else:
            assert self._cache is not None
            _, entry = self._cache.lookup(digest)
        if entry is not None:
            address, stored_aux = entry
            if stored_aux == aux or not self.config.co_mach:
                if stored_aux != aux and stats is not None:
                    stats.silent_collisions += 1
                return address
            # Detected CRC32 collision: fall back to CO-MACH.
            if stats is not None:
                stats.detected_collisions += 1
        if self._co_mach is not None:
            _, co_entry = self._co_mach.lookup((aux << 32) | digest)
            if co_entry is not None:
                if stats is not None:
                    stats.co_mach_hits += 1
                return int(co_entry)
        return None

    def insert(self, digest: int, address: int, aux: int) -> None:
        """Record that the block with ``digest`` now lives at ``address``."""
        if self._dict is not None:
            self._dict[digest] = (address, aux)
            return
        assert self._cache is not None
        if self.config.co_mach:
            existing = self._cache.peek(digest)
            if existing is not None and existing[1] != aux:
                # Collided with a resident entry: spill to CO-MACH.
                if self._co_mach is not None:
                    self._co_mach.insert((aux << 32) | digest, address)
                return
        self._cache.insert(digest, (address, aux))

    def freeze(self) -> FrozenMach:
        """Finish the frame: snapshot resident entries immutably."""
        entries: Iterable[Tuple[int, Tuple[int, int]]]
        if self._dict is not None:
            entries = self._dict.items()
        else:
            assert self._cache is not None
            entries = self._cache.items()
        table = np.array([(digest, address, aux)
                          for digest, (address, aux) in entries],
                         dtype=np.int64).reshape(-1, 3)
        return FrozenMach(self.frame_index, *table.T)


class WalkRing(MachRing):
    """The MACH ring driven block by block: the current frame's
    :class:`FrameMach`, then the frozen frames, newest first."""

    def __init__(self, config: MachConfig, unbounded: bool = False) -> None:
        super().__init__(config, unbounded)
        self._current: Optional[FrameMach] = None
        self._tables: Deque[Dict[int, Tuple[int, int]]] = deque(
            maxlen=self._frozen.maxlen)

    def ensure_idle(self) -> None:
        if self._current is not None:
            raise SchedulingError("previous frame was never ended")

    def begin_frame(self, frame_index: int) -> None:
        self.ensure_idle()
        self._current = FrameMach(self.config, frame_index, self.unbounded)

    def lookup(self, digest: int, aux: int = 0) -> Tuple[MatchKind,
                                                         Optional[int]]:
        """Search current-then-frozen; returns (kind, address)."""
        address = self._require_current().lookup(digest, aux, self.stats)
        if address is not None:
            return MatchKind.INTRA, address
        for table in reversed(self._tables):  # newest frame first
            entry = table.get(digest)
            if entry is not None:
                stored_address, stored_aux = entry
                if stored_aux != aux and self.config.co_mach:
                    self.stats.detected_collisions += 1
                    continue
                if stored_aux != aux:
                    self.stats.silent_collisions += 1
                return MatchKind.INTER, stored_address
        return MatchKind.NONE, None

    def insert(self, digest: int, address: int, aux: int = 0) -> None:
        self._require_current().insert(digest, address, aux)

    def end_frame(self) -> FrozenMach:
        """Freeze the current frame's MACH and rotate it into the ring."""
        frozen = self._require_current().freeze()
        self._current = None
        self.ingest_frozen(frozen)
        if self._tables.maxlen:
            self._tables.append(frozen_table(frozen))
        return frozen

    def _require_current(self) -> FrameMach:
        if self._current is None:
            raise SchedulingError("no frame in progress; call begin_frame()")
        return self._current


class ScalarWritebackEngine(WritebackEngine):
    """The write engine on the per-block walk: the reference the
    whole-frame kernel must match, frame by frame."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if self.ring is not None:
            self.ring = WalkRing(self.mach_config, self.ring.unbounded)

    def _collides(self, frame_index: int, block: int) -> bool:
        """Is this block's match an injected collision (one hash per
        block, as the fault plan defines it)?"""
        plan = self._fault_plan
        return plan is not None and hash_u01(
            plan.config.seed, faults._SITE_COLLISION, frame_index,
            block) < plan.config.digest_collision

    def _process_mach(self, frame: Any, slot_base: int) -> Any:
        tags, aux, dcc_sizes = self._content_features(frame.blocks)
        return self._walk(frame, slot_base, tags, aux, dcc_sizes)

    def _walk(self, frame: Any, slot_base: int, tags: np.ndarray,
              aux: np.ndarray, dcc_sizes: Optional[np.ndarray]) -> Any:
        """One frame, block by block."""
        ring = self.ring
        assert isinstance(ring, WalkRing)
        n = frame.n_blocks
        block_bytes = frame.block_bytes
        table_base, bases_base, data_base = self._layout_bases(
            frame, slot_base)

        kinds = np.empty(n, dtype=np.uint8)
        pointers = np.empty(n, dtype=np.int64)
        digests_out = np.zeros(n, dtype=np.uint64)

        before = (ring.stats.intra, ring.stats.inter, ring.stats.none)
        ring.begin_frame(frame.index)
        cursor = data_base
        digest_mode = self._digest_layout is LayoutMode.POINTER_DIGEST
        for i in range(n):
            digest = int(tags[i])
            kind, address = ring.lookup(digest, int(aux[i]))
            if (kind is not MatchKind.NONE
                    and self._collides(frame.index, i)):
                # Injected collision: the digest matched but the bytes
                # would not have.
                ring.stats.injected_collisions += 1
                if self._verify:
                    ring.stats.fallback_writes += 1
                    kind, address = MatchKind.NONE, None
                else:
                    ring.stats.silent_collisions += 1
            record(ring.stats, kind, digest)
            if kind is MatchKind.NONE:
                kinds[i] = int(RecordKind.STORED)
                pointers[i] = cursor
                ring.insert(digest, cursor, int(aux[i]))
                cursor += (int(dcc_sizes[i]) if dcc_sizes is not None
                           else block_bytes)
            elif kind is MatchKind.INTRA or not digest_mode:
                kinds[i] = int(RecordKind.POINTER)
                pointers[i] = address
            else:
                kinds[i] = int(RecordKind.DIGEST)
                pointers[i] = address  # kept for MACH-buffer miss fallback
                digests_out[i] = digest
        dump = ring.end_frame()
        after = (ring.stats.intra, ring.stats.inter, ring.stats.none)
        matches = FrameMatches(
            intra=after[0] - before[0],
            inter=after[1] - before[1],
            none=after[2] - before[2],
        )
        return self._finish_mach(
            frame, kinds, pointers, digests_out,
            table_base, bases_base, data_base,
            cursor - data_base, dump, matches,
            DigestGroups.of_records(kinds, digests_out))


@dataclass
class BankState:
    """One bank: currently open row and the time it was last accessed."""

    open_row: int = -1
    last_access: float = float("-inf")

    def access(self, row: int, time: float, max_open: float) -> bool:
        """Process an access; returns True if it required an activate."""
        hit = (
            row == self.open_row
            and (time - self.last_access) <= max_open
        )
        self.open_row = row
        self.last_access = time
        return not hit


class RowBufferModel:
    """All banks of the device, access by access.

    Open-page with timeout: an access activates its row unless the same
    row is already open *and* was last touched within ``row_max_open``
    seconds (paper Sec. 3.2).
    """

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self.banks = [BankState() for _ in range(config.total_banks)]
        self.activations = 0
        self.accesses = 0

    def access(self, bank: int, row: int, time: float) -> bool:
        """Access (bank, row) at ``time``; returns True on activation."""
        activated = self.banks[bank].access(
            row, time, self.config.row_max_open)
        self.activations += int(activated)
        self.accesses += 1
        return activated

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return 1.0 - self.activations / self.accesses
