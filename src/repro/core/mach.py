"""MACH — the MAcroblock caCHe (paper Sec. 4).

One MACH is built *per frame* while that frame decodes: a 256-entry
4-way set-associative cache mapping a block digest to the address where
that block's bytes live in a frame buffer.  When the frame finishes,
its MACH freezes and joins a ring of the ``num_machs`` most recent
frames; lookups consult the current frame first (intra matches) and
then the frozen ring, newest first (inter matches).

The CO-MACH extension (Sec. 6.3) stores a CRC16 auxiliary field next to
each entry: a CRC32 tag hit with a CRC16 mismatch is a detected
collision, and the colliding entry is kept in a small side cache tagged
by the full 48-bit digest.  Without CO-MACH a CRC32 collision silently
reuses the wrong block — the tracker still counts those so Fig. 12d can
report them.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Deque, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..cache import SetAssociativeCache
from ..config import MachConfig
from ..errors import SchedulingError
from .soa import stable_sort

_AUX_MASK = 0xFFFF
_TAG_MASK = 0xFFFFFFFF


class MatchKind(Enum):
    """Where a block's content was found (Fig. 7b categories)."""

    INTRA = "intra"
    INTER = "inter"
    NONE = "none"


@dataclass
class MachStats:
    """Running match statistics across a run."""

    intra: int = 0
    inter: int = 0
    none: int = 0
    detected_collisions: int = 0
    silent_collisions: int = 0
    co_mach_hits: int = 0
    #: Injected digest collisions (fault injection, not natural CRC32
    #: aliasing) and how the write path resolved them: a verified
    #: fallback stores the full block, an unverified one silently
    #: reuses the wrong content.
    injected_collisions: int = 0
    fallback_writes: int = 0
    match_counter: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return self.intra + self.inter + self.none

    @property
    def match_rate(self) -> float:
        if not self.total:
            return 0.0
        return (self.intra + self.inter) / self.total

    def record(self, kind: MatchKind, digest: int) -> None:
        if kind is MatchKind.INTRA:
            self.intra += 1
            self.match_counter[digest] += 1
        elif kind is MatchKind.INTER:
            self.inter += 1
            self.match_counter[digest] += 1
        else:
            self.none += 1

    def record_batch(self, intra: int, inter: int, none: int,
                     matched_digests: Sequence[int],
                     matched_counts: Sequence[int]) -> None:
        """Bulk equivalent of per-block :meth:`record` calls.

        ``matched_digests`` must be ordered by first match occurrence
        within the batch so that ``match_counter`` keeps the exact
        insertion order the scalar loop would have produced.
        """
        self.intra += intra
        self.inter += inter
        self.none += none
        if len(matched_digests):
            self.match_counter.update(
                dict(zip(matched_digests, matched_counts)))

    def top_match_share(self, top_n: int = 1) -> float:
        """Fraction of all matches owned by the ``top_n`` digests (Fig. 9b)."""
        matches = self.intra + self.inter
        if not matches:
            return 0.0
        return sum(c for _, c in self.match_counter.most_common(top_n)) / matches


class FrozenMach:
    """An immutable, finished per-frame MACH (what gets dumped).

    Stored as aligned int64 columns in ascending digest order, the
    order the dump is written and prefetched in.  The constructor sets
    that order whatever order its entries arrive in.
    """

    def __init__(self, frame_index: int, digests: np.ndarray,
                 addresses: np.ndarray, aux: np.ndarray) -> None:
        order = np.argsort(digests, kind="stable")
        self.frame_index = frame_index
        self.digests = np.asarray(digests, dtype=np.int64)[order]
        self.addresses = np.asarray(addresses, dtype=np.int64)[order]
        self.aux = np.asarray(aux, dtype=np.int64)[order]
        for column in (self.digests, self.addresses, self.aux):
            column.flags.writeable = False

    @property
    def entries(self) -> int:
        return len(self.digests)

    @cached_property
    def table(self) -> Dict[int, Tuple[int, int]]:
        """``digest -> (address, aux)``, for the per-block walk's lookups."""
        return dict(zip(self.digests.tolist(),
                        zip(self.addresses.tolist(), self.aux.tolist())))


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
                deep_tag = (aux << 32) | digest
                _, co_entry = self._co_mach.lookup(deep_tag)
                if co_entry is not None:
                    if stats is not None:
                        stats.co_mach_hits += 1
                    return int(co_entry)
            return None
        if self._co_mach is not None:
            deep_tag = (aux << 32) | digest
            _, co_entry = self._co_mach.lookup(deep_tag)
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


class MachRing:
    """The current MACH plus the frozen ring of recent frames."""

    def __init__(self, config: MachConfig, unbounded: bool = False) -> None:
        self.config = config
        self.unbounded = unbounded
        self.stats = MachStats()
        self._current: Optional[FrameMach] = None
        self._frozen: Deque[FrozenMach] = deque(maxlen=max(config.num_machs - 1, 0))
        self._batch_view: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def ensure_idle(self) -> None:
        """Raise unless the previous frame's MACH was ended/ingested."""
        if self._current is not None:
            raise SchedulingError("previous frame was never ended")

    def begin_frame(self, frame_index: int) -> None:
        self.ensure_idle()
        self._current = FrameMach(self.config, frame_index, self.unbounded)

    def lookup(self, digest: int, aux: int = 0) -> Tuple[MatchKind, Optional[int]]:
        """Search current-then-frozen; returns (kind, address)."""
        current = self._require_current()
        address = current.lookup(digest, aux, self.stats)
        if address is not None:
            return MatchKind.INTRA, address
        for frozen in reversed(self._frozen):  # newest frame first
            entry = frozen.table.get(digest)
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
        if self._frozen.maxlen:
            self._frozen.append(frozen)
            self._batch_view = None
        self._current = None
        return frozen

    def ingest_frozen(self, frozen: FrozenMach) -> None:
        """Rotate an externally built frame MACH into the ring.

        The batched write path classifies a whole frame at once and
        never materializes a :class:`FrameMach`; it hands the finished
        snapshot straight to the ring.  The same begin/end scheduling
        invariant applies.
        """
        self.ensure_idle()
        if self._frozen.maxlen:
            self._frozen.append(frozen)
            self._batch_view = None

    def lookup_batch(
            self, digests: np.ndarray,
            aux: np.ndarray) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Frozen-ring lookup of many digests at once, without stats.

        Returns ``(found, addresses, clean)`` where ``found`` marks
        digests resident in at least one frozen frame, ``addresses``
        holds the match address from the *newest* such frame (the one
        the scalar walk would return), and ``clean`` is False when any
        consulted entry's CRC16 aux disagrees with the query's — the
        collision paths (silent match or CO-MACH skip) that the caller
        must replay through the scalar loop instead.

        Pure: ring state and stats are untouched.
        """
        n = len(digests)
        found = np.zeros(n, dtype=bool)
        addresses = np.zeros(n, dtype=np.int64)
        if not self._frozen:
            return found, addresses, True
        view = self._batch_view
        if view is None:
            # Newest first, so ties on digest resolve to the newest
            # frame after the stable sort below.
            frozen = list(reversed(self._frozen))
            ring_d, order = stable_sort(
                np.concatenate([f.digests for f in frozen]))
            view = (ring_d,
                    np.concatenate([f.addresses for f in frozen])[order],
                    np.concatenate([f.aux for f in frozen])[order])
            self._batch_view = view
        ring_d, ring_a, ring_x = view
        if not len(ring_d):
            return found, addresses, True
        pos = np.searchsorted(ring_d, digests, side="left")
        pos = np.minimum(pos, len(ring_d) - 1)
        found = ring_d[pos] == digests
        addresses[found] = ring_a[pos[found]]
        clean = bool(np.array_equal(ring_x[pos[found]], aux[found]))
        return found, addresses, clean

    def _require_current(self) -> FrameMach:
        if self._current is None:
            raise SchedulingError("no frame in progress; call begin_frame()")
        return self._current

    @property
    def frozen_frames(self) -> Tuple[int, ...]:
        return tuple(f.frame_index for f in self._frozen)


def split_digest(deep_digest: int) -> Tuple[int, int]:
    """Split a 48-bit deep digest into (crc32 tag, crc16 aux)."""
    return deep_digest & _TAG_MASK, (deep_digest >> 32) & _AUX_MASK
