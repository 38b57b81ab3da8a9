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
from typing import Deque, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..config import MachConfig
from .soa import stable_sort

_AUX_MASK = 0xFFFF
_TAG_MASK = 0xFFFFFFFF


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

    def record_batch(self, intra: int, inter: int, none: int,
                     matched_digests: Sequence[int],
                     matched_counts: Sequence[int]) -> None:
        """Count one frame's outcomes.

        ``matched_digests`` must be ordered by first match occurrence
        within the frame so that ``match_counter`` keeps the insertion
        order of counting block by block.
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


class MachOutcome(NamedTuple):
    """One frame's MACH classification, before it is laid out.

    Block indices throughout; a ``source`` is the block stored this
    frame whose bytes a pointer or a frame-MACH entry refers to.
    """

    stored: np.ndarray  # bool per block: its bytes are written
    intra: np.ndarray  # blocks matched in this frame's MACH or CO-MACH
    intra_source: np.ndarray
    inter: np.ndarray  # blocks matched in the frozen ring
    inter_address: np.ndarray
    resident_tags: np.ndarray  # the frame MACH's entries when it ends
    resident_source: np.ndarray
    resident_aux: np.ndarray


class FrozenMatches(NamedTuple):
    """Per block, what the frozen ring answers to its tag and aux."""

    found: np.ndarray  # a usable entry exists
    addresses: np.ndarray  # that entry's address (where found)
    aux: np.ndarray  # that entry's CRC16 aux (where found)
    passed: np.ndarray  # newer entries of the tag skipped as collisions

    def agree(self, aux: np.ndarray) -> bool:
        """Did every entry consulted hold its query's ``aux``?"""
        return not self.passed.any() and np.array_equal(
            self.aux[self.found], aux[self.found])


class MachRing:
    """The frozen ring of recent frames' MACHs, and the run's stats."""

    def __init__(self, config: MachConfig, unbounded: bool = False) -> None:
        self.config = config
        self.unbounded = unbounded
        self.stats = MachStats()
        self._frozen: Deque[FrozenMach] = deque(maxlen=max(config.num_machs - 1, 0))
        self._batch_view: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def ingest_frozen(self, frozen: FrozenMach) -> None:
        """Rotate a finished frame's MACH into the ring."""
        if self._frozen.maxlen:
            self._frozen.append(frozen)
            self._batch_view = None

    def _view(self) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The ring's (digests, addresses, aux), sorted by digest with
        ties newest first; None when the ring holds no entry."""
        if self._batch_view is None and self._frozen:
            # Newest first, so ties on digest resolve to the newest
            # frame after the stable sort below.
            frozen = list(reversed(self._frozen))
            ring_d, order = stable_sort(
                np.concatenate([f.digests for f in frozen]))
            self._batch_view = (
                ring_d, np.concatenate([f.addresses for f in frozen])[order],
                np.concatenate([f.aux for f in frozen])[order])
        view = self._batch_view
        return view if view is not None and len(view[0]) else None

    def lookup_batch(self, tags: np.ndarray,
                     aux: np.ndarray) -> FrozenMatches:
        """The frozen ring's answer to each tag and aux, without stats.

        Frames are consulted newest first.  Without CO-MACH the newest
        entry of the tag answers, whatever its aux.  With CO-MACH an
        entry whose CRC16 aux differs is a detected collision and is
        skipped, so the newest entry with the tag *and* the aux answers.
        """
        n = len(tags)
        zeros = np.zeros(n, dtype=np.int64)
        view = self._view()
        if view is None:
            return FrozenMatches(np.zeros(n, dtype=bool), zeros, zeros, zeros)
        ring_d, ring_a, ring_x = view
        lo = np.searchsorted(ring_d, tags, side="left")
        if not self.config.co_mach:
            entry = np.minimum(lo, len(ring_d) - 1)
            return FrozenMatches(ring_d[entry] == tags, ring_a[entry],
                                 ring_x[entry], zeros)
        hi = np.searchsorted(ring_d, tags, side="right")
        # A frame holds a tag once, so among one tag's entries (newest
        # first) the first with the block's aux is the newest usable one.
        deep = (ring_x << 32) | ring_d
        by_deep = np.argsort(deep, kind="stable")
        deep = deep[by_deep]
        query = (aux << 32) | tags
        pos = np.minimum(np.searchsorted(deep, query), len(deep) - 1)
        found = deep[pos] == query
        entry = by_deep[pos]
        return FrozenMatches(found, ring_a[entry], ring_x[entry],
                             np.where(found, entry - lo, hi - lo))


def split_digest(deep_digest: int) -> Tuple[int, int]:
    """Split a 48-bit deep digest into (crc32 tag, crc16 aux)."""
    return deep_digest & _TAG_MASK, (deep_digest >> 32) & _AUX_MASK
