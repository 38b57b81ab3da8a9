"""Whole-frame MACH classification for a frame that holds a collision.

The write kernel classifies a clean frame from one sort of its tags: a
tag found in the frozen ring is an inter match on every block, and every
other block touches the current MACH once, so the touch sequence is
known in advance.  Three things break that (docs/MODEL.md §10):

* **Injected collisions** (``FaultPlan.digest_collisions``).  Verified,
  the matched block is stored instead and inserts into (or updates) the
  current MACH, so a later block with a ring tag may find it there
  first.  Unverified, it only counts as a silent collision.
* **A CRC16 disagreement without CO-MACH** is a silent collision: the
  match stands, counted against the entry's aux.
* **A CRC16 disagreement with CO-MACH** is a detected collision (Sec.
  6.3).  The lookup goes on to the CO-MACH side cache, an LRU of its
  own keyed by the 48-bit tag ``aux << 32 | tag``, then to the frozen
  ring, where an entry whose aux differs is skipped.  A block stored
  while its tag's entry holds another aux spills into the side cache.

A block then touches a cache only when its key is resident or it writes
it, so :func:`classify_collisions` solves for the touch sequence: it
guesses every block's actions, replays them with
:func:`~repro.core.soa.lru_touch_classify`, derives what every block
actually does, and repeats until the derived actions reproduce the
guess.  A block's actions depend only on the blocks before it, so each
pass settles at least the first block it got wrong (at most ``n + 1``
passes; two or three when collisions are sparse).  A block that does
not touch a cache reads its key's residency off the stack distance of
the key's last touch (:func:`_still_resident`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from .mach import MachOutcome, MachRing
from .soa import LruClassification, lru_touch_classify

#: Largest probes x links comparison :func:`_still_resident` makes at once.
_DENSE_BUDGET = 1 << 16


class _Chains:
    """Blocks grouped by key: each key's blocks one run, in block order."""

    def __init__(self, order: np.ndarray, new_run: np.ndarray) -> None:
        self.order = order
        self._pos = np.arange(len(order), dtype=np.int64)
        self._start = np.maximum.accumulate(np.where(new_run, self._pos, 0))
        self._end = np.flatnonzero(np.append(new_run[1:], True))
        self._run = np.cumsum(new_run) - 1

    @classmethod
    def of(cls, keys: np.ndarray) -> "_Chains":
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        new_run = np.empty(len(keys), dtype=bool)
        new_run[:1] = True
        new_run[1:] = ordered[1:] != ordered[:-1]
        return cls(order, new_run)

    def _blocks(self, latest: np.ndarray) -> np.ndarray:
        """Sorted positions (-1 for none, or outside the run) -> blocks."""
        latest = np.where(latest >= self._start, latest, -1)
        out = np.empty(len(latest), dtype=np.int64)
        out[self.order] = np.where(latest >= 0, self.order[latest], -1)
        return out

    def latest(self, flag: np.ndarray) -> np.ndarray:
        """Per block, the latest flagged block of its key before it, or -1."""
        marks = np.maximum.accumulate(
            np.where(flag[self.order], self._pos, -1))
        return self._blocks(np.concatenate(([-1], marks[:-1])))

    def final(self, flag: np.ndarray) -> np.ndarray:
        """Per block, the last flagged block of its key, or -1."""
        marks = np.maximum.accumulate(
            np.where(flag[self.order], self._pos, -1))
        return self._blocks(marks[self._end][self._run])


def _still_resident(blocks: np.ndarray, last: np.ndarray, sets: np.ndarray,
                    touched: np.ndarray, ways: int) -> np.ndarray:
    """Is each probed block's key still resident when the block runs?

    ``last[b]`` is the latest touch of block ``b``'s key before ``b``
    (every probe has one).  The key was most recently used then, so it
    is still resident iff fewer than ``ways`` distinct keys of its set
    were touched in between: the touches in that window minus the
    same-key links lying wholly inside it.
    """
    n = len(sets)
    touches = np.flatnonzero(touched)
    span = np.int64(n + 1)
    by_set = np.sort(sets[touches] * span + touches)
    p, s = last[blocks], sets[blocks]
    window = (np.searchsorted(by_set, s * span + blocks)
              - np.searchsorted(by_set, s * span + p, side="right"))
    link_end = touches[last[touches] >= 0]
    link_start, link_set = last[link_end], sets[link_end]
    inside = np.zeros(len(blocks), dtype=np.int64)
    step = max(1, _DENSE_BUDGET // max(len(link_end), 1))
    for lo in range(0, len(blocks), step):
        chunk = slice(lo, lo + step)
        inside[chunk] = ((link_set == s[chunk, None])
                         & (link_start > p[chunk, None])
                         & (link_end < blocks[chunk, None])).sum(axis=1)
    return window - inside < ways


def _present(chains: _Chains, keys: np.ndarray, sets: np.ndarray,
             touched: np.ndarray,
             ways: int) -> Tuple[np.ndarray, LruClassification]:
    """Per block, is its key resident in the LRU the touches replay?"""
    touches = np.flatnonzero(touched)
    replay = lru_touch_classify(sets[touches], keys[touches], ways)
    present = np.zeros(len(keys), dtype=bool)
    present[touches] = replay.hits
    last = chains.latest(touched)
    probes = np.flatnonzero(~touched & (last >= 0))
    if len(probes):
        present[probes] = _still_resident(probes, last, sets, touched, ways)
    return present, replay


class _Actions(NamedTuple):
    """What every block does to the current MACH and the CO-MACH."""

    touch: np.ndarray  # touches the frame MACH (lookup hit or write)
    write: np.ndarray  # inserts or updates its tag's frame-MACH entry
    co_touch: np.ndarray  # touches the CO-MACH (lookup hit or spill)
    spill: np.ndarray  # inserts or updates its 48-bit tag's CO-MACH entry


class _Pass(NamedTuple):
    """One replay of guessed actions, and what it implies per block."""

    derived: _Actions
    stored: np.ndarray
    usable: np.ndarray  # an intra match in the frame MACH
    co_hit: np.ndarray  # an intra match in the CO-MACH
    inter: np.ndarray  # matched in the frozen ring
    injected: np.ndarray  # a match declared a collision
    source: np.ndarray  # frame-MACH entry's writer, per block
    co_source: np.ndarray  # CO-MACH entry's writer, per block
    differs: np.ndarray  # resident entry holds another aux
    replay: Optional[LruClassification]


def classify_collisions(ring: MachRing, tags: np.ndarray, aux: np.ndarray,
                        order: np.ndarray, new_run: np.ndarray,
                        injected: np.ndarray, verify: bool) -> MachOutcome:
    """Classify one frame exactly, collisions included.

    ``order``/``new_run`` are the frame's tags after one stable sort
    (:class:`~repro.core.writeback.TagRuns`).  ``injected`` marks the
    blocks whose match, if any, is an injected collision.  Counts the
    collision statistics into ``ring.stats``; the match counts are the
    caller's.
    """
    config = ring.config
    n = len(tags)
    co = config.co_mach
    side = co and not ring.unbounded  # the CO-MACH side cache exists
    frozen = ring.lookup_batch(tags, aux)
    chains = _Chains(order, new_run)
    sets = tags & np.int64(config.sets_per_mach - 1)
    deep = (aux << 32) | tags
    co_chains = _Chains.of(deep) if side else None
    co_sets = max(1, config.co_mach_entries // config.ways)
    co_sets = tags & np.int64((1 << (co_sets.bit_length() - 1)) - 1)
    none = np.zeros(n, dtype=bool)

    def replay(guess: _Actions) -> _Pass:
        result: Optional[LruClassification] = None
        source = chains.latest(guess.write)
        if ring.unbounded:
            present = source >= 0
        else:
            present, result = _present(chains, tags, sets, guess.touch,
                                       config.ways)
        differs = present & (np.where(source >= 0, aux[source], -1) != aux)
        usable = present & ~(differs & co)
        co_hit, co_source = none, np.full(n, -1, dtype=np.int64)
        if co_chains is not None:
            co_present, _ = _present(co_chains, deep, co_sets,
                                     guess.co_touch, config.ways)
            co_hit = ~usable & co_present
            co_source = co_chains.latest(guess.spill)
        inter = ~usable & ~co_hit & frozen.found
        matched = usable | co_hit | inter
        hit = injected & matched
        stored = ~matched | (hit & verify)
        spill = stored & differs if side else none
        write = stored & ~spill
        touch = present | write
        # Two shortcuts, exact wherever the guess before them was.  A key
        # a block missed stays absent until a block writes it, so its
        # later touches go now rather than one per pass.  And once a
        # block newly touches its key, the later blocks of that key were
        # probed against a stale last touch, so they are guessed touches
        # and the next pass replays them.
        absent = chains.latest(~touch) > chains.latest(write)
        touch = (touch & (write | ~absent)) | (
            chains.latest(touch & ~guess.touch) >= 0)
        co_touch = co_hit | spill
        derived = _Actions(touch, write, co_touch, spill)
        return _Pass(derived, stored, usable, co_hit, inter, hit, source,
                     co_source, differs, result)

    # First guess: the clean frame's actions.  Ring tags touch nothing;
    # every other block touches, and the first of each tag writes.
    touch = ~frozen.found
    guess = _Actions(touch, touch & (chains.latest(touch) < 0), none, none)
    for _ in range(n + 1):
        step = replay(guess)
        if all(np.array_equal(a, b) for a, b in zip(step.derived, guess)):
            break
        guess = step.derived
    else:
        raise AssertionError("a pass settles at least one more block")

    stats = ring.stats
    via_ring = ~step.usable & ~step.co_hit
    stats.detected_collisions += (
        int(np.count_nonzero(step.differs)) * co
        + int(frozen.passed[via_ring].sum()))
    stats.silent_collisions += int(
        np.count_nonzero(step.usable & step.differs)
        + np.count_nonzero(step.inter & (frozen.aux != aux))
        + np.count_nonzero(step.injected) * (not verify))
    stats.co_mach_hits += int(np.count_nonzero(step.co_hit))
    stats.injected_collisions += int(np.count_nonzero(step.injected))
    stats.fallback_writes += int(np.count_nonzero(step.injected)) * verify

    kept = ~step.stored
    intra = np.flatnonzero((step.usable | step.co_hit) & kept)
    intra_source = np.where(step.usable, step.source,
                            step.co_source)[intra]
    inter = np.flatnonzero(step.inter & kept)
    # The frame MACH's entries: each resident tag, valued by its last write.
    final = chains.final(guess.write)
    if step.replay is None:
        resident = final[order[np.flatnonzero(new_run)]]
        resident = resident[resident >= 0]
    else:
        resident = final[np.flatnonzero(guess.touch)[
            step.replay.resident_touch]]
    return MachOutcome(step.stored, intra, intra_source, inter,
                       frozen.addresses[inter], tags[resident], resident,
                       aux[resident])
