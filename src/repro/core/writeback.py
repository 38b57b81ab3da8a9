"""VD write path: content caching engine (paper Sec. 4).

For every decoded block the engine computes a digest (of the block or
of its gradient form), consults the MACH ring, and either

* stores the block (no match) — appending its bytes to the frame's
  compacted data region and inserting the digest into the current
  frame's MACH, or
* records a 4-byte pointer (intra match, or inter match in POINTER
  layout), or
* records the digest itself (inter match in POINTER_DIGEST layout),
  to be resolved by the display's MACH buffer.

The engine also emits the frame's line-granular write traffic
(coalesced or not) and the frozen MACH dump.

A block's digest, CRC16 aux and DCC size depend on its bytes alone, so
the engine computes them only for the blocks that changed since the
previous frame (``_content_features``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..compression.dcc import compressed_sizes
from ..config import MachConfig, SchemeConfig, VideoConfig
from ..faults import FaultPlan
from ..hashing.crc import crc_pair_blocks
from ..hashing.digest import get_scheme
from ..video.frame import DecodedFrame
from .coalesce import sequential_lines, uncoalesced_stream_lines
from .gradient import to_gradient
from .layout import FrameLayout, LayoutMode, RecordKind
from .collisions import classify_collisions
from .mach import FrozenMach, MachOutcome, MachRing, MachStats
from .soa import chain_providers, lru_chain_classify, stable_sort

_DUMP_ENTRY_BYTES = 8  # digest (4) + pointer (4)


@dataclass(frozen=True)
class FrameMatches:
    """Per-frame census of MACH outcomes."""

    intra: int
    inter: int
    none: int

    @property
    def total(self) -> int:
        return self.intra + self.inter + self.none

    @property
    def match_rate(self) -> float:
        return (self.intra + self.inter) / self.total if self.total else 0.0


class ContentFeatures(NamedTuple):
    """Per-block values that depend on the block's bytes alone."""

    tags: Optional[np.ndarray]  # int64 digests (MACH schemes)
    aux: Optional[np.ndarray]  # int64 CRC16s; zeros for non-CRC digests
    dcc_sizes: Optional[np.ndarray]  # int64 DCC-compressed sizes


def _changed_rows(current: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``current`` whose bytes differ from ``previous``.

    Both are C-contiguous matrices of one shape and dtype; each row is
    viewed as the widest unsigned words that tile it, and the XORs of
    its words are ORed together column by column.
    """
    word = next(w for w in (8, 4, 2, 1) if current.shape[1] % w == 0)
    dtype = np.dtype(f"u{word}")
    diff = current.view(dtype) ^ previous.view(dtype)
    acc = np.zeros(len(diff), dtype=dtype)
    for column in diff.T:
        acc |= column
    return acc != 0


class TagRuns(NamedTuple):
    """A frame's tags after one stable sort: runs of equal tags.

    The sort keeps block order within a run, so a run lists one tag's
    blocks in block order.
    """

    order: np.ndarray  # stable argsort of the tags
    tags: np.ndarray  # tags in sorted order
    aux: np.ndarray  # CRC16 auxes in sorted order
    new_run: np.ndarray  # True where a run of equal tags starts
    starts: np.ndarray  # sorted positions of the run starts
    run_id: np.ndarray  # run of each sorted position

    @classmethod
    def of(cls, tags: np.ndarray, aux: np.ndarray) -> "TagRuns":
        sorted_tags, order = stable_sort(tags)  # tags are 32-bit digests
        new_run = np.empty(len(order), dtype=bool)
        new_run[:1] = True
        new_run[1:] = sorted_tags[1:] != sorted_tags[:-1]
        return cls(order, sorted_tags, aux[order], new_run,
                   np.flatnonzero(new_run), np.cumsum(new_run) - 1)

    def aux_consistent(self) -> bool:
        """True when no tag appears with two different CRC16 auxes."""
        aux = self.aux
        return not np.any((aux[1:] != aux[:-1]) & ~self.new_run[1:])


class DigestGroups(NamedTuple):
    """A frame's DIGEST records grouped by digest.

    The display's MACH buffer is keyed by digest, so a scan resolves
    each distinct digest once rather than each record.
    """

    digests: np.ndarray  # uint64 distinct digests, ascending
    first_block: np.ndarray  # int64 block of each digest's first record
    counts: np.ndarray  # int64 records per digest

    @classmethod
    def of_records(cls, kinds: np.ndarray,
                   digests: np.ndarray) -> "DigestGroups":
        """Groups of the DIGEST records among per-block ``kinds``."""
        blocks = np.flatnonzero(kinds == np.uint8(int(RecordKind.DIGEST)))
        distinct, first, counts = np.unique(
            digests[blocks], return_index=True, return_counts=True)
        return cls(distinct, blocks[first], counts.astype(np.int64))


_NO_DIGESTS = DigestGroups(np.empty(0, dtype=np.uint64),
                           np.empty(0, dtype=np.int64),
                           np.empty(0, dtype=np.int64))


@dataclass
class WritebackResult:
    """Everything one frame's writeback produced."""

    layout: FrameLayout
    write_lines: np.ndarray  # line addresses in write order
    matches: FrameMatches
    dump: Optional[FrozenMach]
    bytes_written: int
    digest_groups: DigestGroups


def slot_bytes_needed(video: VideoConfig, mach: MachConfig,
                      scheme: SchemeConfig) -> int:
    """Worst-case bytes one frame can occupy in its buffer slot."""
    n = video.blocks_per_frame
    size = video.frame_bytes  # all blocks stored, uncompacted
    if scheme.uses_mach:
        size += n * mach.pointer_bytes + (n + 7) // 8  # table + bitmap
        if scheme.content_cache == "gab":
            size += n * mach.base_bytes
        size += mach.entries_per_mach * _DUMP_ENTRY_BYTES
    return size


class WritebackEngine:
    """Stateful per-video write path for one scheme."""

    def __init__(self, video: VideoConfig, mach: MachConfig,
                 scheme: SchemeConfig, line_bytes: int = 64,
                 unbounded_mach: bool = False,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.video = video
        self.mach_config = mach
        self.scheme = scheme
        self.line_bytes = line_bytes
        self.ring: Optional[MachRing] = (
            MachRing(mach, unbounded=unbounded_mach)
            if scheme.uses_mach else None)
        self._scheme_obj = get_scheme(mach.digest_scheme)
        self._use_gradient = scheme.content_cache == "gab"
        self._digest_layout = (LayoutMode.POINTER_DIGEST
                               if scheme.display_caching else LayoutMode.POINTER)
        # Fault injection: a plan whose digest_collision rate is
        # non-zero turns some matches into hash collisions.  With
        # verification on, the engine compares the actual bytes (a
        # cheap on-chip compare the paper's CRC32 scheme omits),
        # detects the lie, and stores the full block instead of a
        # wrong pointer — content caching is never silently incorrect
        # (repro.core.collisions).
        self._fault_plan = (fault_plan if fault_plan is not None
                            and fault_plan.config.digest_collision > 0
                            else None)
        self._verify = (fault_plan.config.verify_digests
                        if fault_plan is not None else True)
        # The previous frame's blocks (a private copy) and their
        # content features, which _content_features carries over.
        self._previous: Optional[Tuple[np.ndarray, ContentFeatures]] = None

    # -- public API -----------------------------------------------------------

    def process_frame(self, frame: DecodedFrame,
                      slot_base: int) -> WritebackResult:
        """Write one decoded frame into its buffer slot."""
        if self.ring is None:
            return self._process_raw(frame, slot_base)
        return self._process_mach(frame, slot_base)

    @property
    def stats(self) -> Optional[MachStats]:
        """Aggregate MACH statistics (None for raw schemes)."""
        return self.ring.stats if self.ring is not None else None

    # -- raw / DCC path ---------------------------------------------------------

    def _process_raw(self, frame: DecodedFrame,
                     slot_base: int) -> WritebackResult:
        n = frame.n_blocks
        if self.scheme.dcc:
            sizes = self._content_features(frame.blocks).dcc_sizes
            assert sizes is not None
            offsets = np.concatenate(
                [[0], np.cumsum(sizes[:-1], dtype=np.int64)])
            data_bytes = int(sizes.sum())
        else:
            offsets = np.arange(n, dtype=np.int64) * frame.block_bytes
            data_bytes = frame.decoded_bytes
        pointers = slot_base + offsets
        layout = FrameLayout(
            frame_index=frame.index,
            mode=LayoutMode.RAW,
            n_blocks=n,
            block_bytes=frame.block_bytes,
            kinds=np.zeros(n, dtype=np.uint8),
            pointers=pointers,
            digests=np.zeros(n, dtype=np.uint64),
            bases_present=False,
            table_base=slot_base,
            bases_base=slot_base,
            data_base=slot_base,
            data_bytes=data_bytes,
            dump_base=slot_base + data_bytes,
            dump_bytes=0,
        )
        write_lines = sequential_lines(slot_base, data_bytes, self.line_bytes)
        matches = FrameMatches(intra=0, inter=0, none=n)
        return WritebackResult(layout, write_lines, matches, None, data_bytes,
                               _NO_DIGESTS)

    # -- content features --------------------------------------------------------

    def _content_features(self, blocks: np.ndarray) -> ContentFeatures:
        """Digest tags, CRC16 aux and DCC sizes of every block.

        They depend on a block's bytes alone, so only the rows that
        differ from the previous frame are computed; every other row
        keeps the previous frame's values.  The first frame, and any
        change of frame shape, computes every row.
        """
        current = np.array(blocks, order="C")  # callers may mutate theirs
        if self._previous is None or self._previous[0].shape != current.shape:
            features = self._compute_features(current)
        else:
            previous_blocks, previous = self._previous
            changed = np.flatnonzero(_changed_rows(current, previous_blocks))
            fresh = self._compute_features(current[changed])
            merged: List[Optional[np.ndarray]] = []
            for old, new in zip(previous, fresh):
                if old is not None and new is not None:
                    old = old.copy()
                    old[changed] = new
                merged.append(old)
            features = ContentFeatures(*merged)
        self._previous = (current, features)
        return features

    def _compute_features(self, blocks: np.ndarray) -> ContentFeatures:
        """Features of ``blocks`` from scratch.

        Under GAB the digest and the DCC size read the same gradient
        rows, computed once.
        """
        rows = to_gradient(blocks)[0] if self._use_gradient else blocks
        tags: Optional[np.ndarray] = None
        aux: Optional[np.ndarray] = None
        if self.ring is not None:
            if self.mach_config.digest_scheme in ("crc32", "crc48"):
                crc32s, crc16s = crc_pair_blocks(rows)
                tags = crc32s.astype(np.int64)
                aux = crc16s.astype(np.int64)
            else:
                tags = self._scheme_obj.digest_blocks(rows).astype(np.int64)
                aux = np.zeros(len(tags), dtype=np.int64)
        dcc_sizes = compressed_sizes(rows) if self.scheme.dcc else None
        return ContentFeatures(tags, aux, dcc_sizes)

    # -- MACH path ---------------------------------------------------------------

    def _process_mach(self, frame: DecodedFrame,
                      slot_base: int) -> WritebackResult:
        assert self.ring is not None
        ring = self.ring
        tags, aux, dcc_sizes = self._content_features(frame.blocks)
        assert tags is not None and aux is not None
        runs = TagRuns.of(tags, aux)
        head_aux = runs.aux[runs.starts]
        heads = ring.lookup_batch(runs.tags[runs.starts], head_aux)
        injected = (np.zeros(frame.n_blocks, dtype=bool)
                    if self._fault_plan is None
                    else self._fault_plan.digest_collisions(
                        frame.index, frame.n_blocks))
        groups: Optional[DigestGroups] = None
        # A frame holds a collision when a match may be declared one, or
        # when a tag meets two CRC16 auxes, within the frame or against
        # the frozen ring; otherwise one sort of its tags classifies it.
        if (not injected.any() and runs.aux_consistent()
                and heads.agree(head_aux)):
            outcome, groups = self._classify(tags, runs, heads.found,
                                             heads.addresses)
        else:
            outcome = classify_collisions(ring, tags, aux, runs.order,
                                          runs.new_run, injected,
                                          self._verify)
        return self._lay_out(frame, slot_base, tags, dcc_sizes, runs,
                             outcome, groups)

    def _layout_bases(self, frame: DecodedFrame,
                      slot_base: int) -> Tuple[int, int, int]:
        n = frame.n_blocks
        mach = self.mach_config
        table_bytes = n * mach.pointer_bytes
        if self._digest_layout is LayoutMode.POINTER_DIGEST:
            table_bytes += (n + 7) // 8
        bases_bytes = n * mach.base_bytes if self._use_gradient else 0
        table_base = slot_base
        bases_base = table_base + table_bytes
        data_base = bases_base + bases_bytes
        return table_base, bases_base, data_base

    def _classify(self, tags: np.ndarray, runs: TagRuns, found: np.ndarray,
                  addresses: np.ndarray
                  ) -> Tuple[MachOutcome, Optional[DigestGroups]]:
        """SoA classification of a clean frame from one sort of its tags.

        ``found`` and ``addresses`` are the frozen-ring lookup of each
        run of equal tags.  Ring membership is a property of the tag,
        so a run is either all INTER (a frozen digest can never also be
        resident in the current MACH) or all touches of the current
        MACH, and a touched run is its key's LRU chain in block order.
        :func:`repro.core.soa.lru_chain_classify` replays those chains
        in closed form.  Under the digest layout, the frame's DIGEST
        groups come off the inter runs too.

        Only stored (unique) blocks enter the frame's MACH — "the
        decoder only needs to write the unique content and the
        pointers" (Sec. 1).  Recurring content therefore keeps matching
        in *older* frames' MACHs (inter), which is what makes the
        digest-indexed share of Fig. 10d large.
        """
        assert self.ring is not None
        n = len(tags)
        mach = self.mach_config
        order = runs.order
        found_s = found[runs.run_id]
        inter_s = np.flatnonzero(found_s)
        touch_s = np.flatnonzero(~found_s)
        # Chain coordinates: the touched sorted positions, whose runs
        # are the touched keys in ascending tag order.
        block_c = order[touch_s]
        new_key = runs.new_run[touch_s]
        if self.ring.unbounded:
            # Oracle MACH: first occurrence stores, the rest hit it,
            # and every key stays resident.
            hits_c = ~new_key
            resident_c = np.concatenate((new_key[1:], new_key[:1]))
        else:
            touched = np.ones(n, dtype=bool)
            touched[order[inter_s]] = False
            touch_rank = np.cumsum(touched) - 1
            hits_c, resident_c = lru_chain_classify(
                tags[touched] & np.int64(mach.sets_per_mach - 1),
                touch_rank[block_c], new_key, mach.ways)
        provider_c = chain_providers(hits_c)
        stored = np.zeros(n, dtype=bool)
        stored[block_c[~hits_c]] = True
        groups = None
        if self._digest_layout is LayoutMode.POINTER_DIGEST:
            # Each inter run is one digest's records, its start the
            # first of them; the runs ascend by tag.
            inter_runs = np.flatnonzero(found)
            heads = runs.starts[inter_runs]
            lengths = np.diff(runs.starts, append=n)[inter_runs]
            groups = DigestGroups(runs.tags[heads].astype(np.uint64),
                                  order[heads], lengths)
        # Residents in chain order are already in ascending digest order.
        resident = np.flatnonzero(resident_c)
        resident_s = touch_s[resident]
        return MachOutcome(
            stored, block_c[hits_c], block_c[provider_c[hits_c]],
            order[inter_s], addresses[runs.run_id[inter_s]],
            runs.tags[resident_s], block_c[provider_c[resident]],
            runs.aux[resident_s]), groups

    def _lay_out(self, frame: DecodedFrame, slot_base: int,
                 tags: np.ndarray, dcc_sizes: Optional[np.ndarray],
                 runs: TagRuns, outcome: MachOutcome,
                 groups: Optional[DigestGroups]) -> WritebackResult:
        """Place a classified frame in its slot, count it, and freeze its
        MACH into the ring."""
        assert self.ring is not None
        ring = self.ring
        n = frame.n_blocks
        table_base, bases_base, data_base = self._layout_bases(
            frame, slot_base)
        kinds = np.empty(n, dtype=np.uint8)
        pointers = np.empty(n, dtype=np.int64)
        digests_out = np.zeros(n, dtype=np.uint64)

        # Stored blocks pack into the data region in block order.
        stored_idx = np.flatnonzero(outcome.stored)
        stored_sizes = (dcc_sizes[stored_idx].astype(np.int64)
                        if dcc_sizes is not None
                        else np.full(len(stored_idx), frame.block_bytes,
                                     dtype=np.int64))
        ends = np.cumsum(stored_sizes)
        data_bytes = int(ends[-1]) if len(ends) else 0
        pointers[stored_idx] = data_base + ends - stored_sizes
        kinds[stored_idx] = int(RecordKind.STORED)

        intra_idx = outcome.intra
        kinds[intra_idx] = int(RecordKind.POINTER)
        pointers[intra_idx] = pointers[outcome.intra_source]

        inter_idx = outcome.inter
        pointers[inter_idx] = outcome.inter_address
        if self._digest_layout is LayoutMode.POINTER_DIGEST:
            kinds[inter_idx] = int(RecordKind.DIGEST)
            digests_out[inter_idx] = tags[inter_idx].astype(np.uint64)
            if groups is None:
                groups = DigestGroups.of_records(kinds, digests_out)
        else:
            kinds[inter_idx] = int(RecordKind.POINTER)
            groups = _NO_DIGESTS

        # Matched tags ordered by their first matched block, which the
        # stable sort puts first among the tag's matched positions: the
        # Counter insertion order of counting block by block.
        n_intra = len(intra_idx)
        n_inter = len(inter_idx)
        order = runs.order
        matched_pos = np.flatnonzero(~outcome.stored[order])
        matched_run = runs.run_id[matched_pos]
        first = np.flatnonzero(np.diff(matched_run, prepend=-1))
        counts = np.diff(np.append(first, len(matched_pos)))
        first_pos = matched_pos[first]
        rank = np.full(n, -1, dtype=np.int64)
        rank[order[first_pos]] = np.arange(len(first_pos), dtype=np.int64)
        by_first = rank[rank >= 0]
        ring.stats.record_batch(
            n_intra, n_inter, len(stored_idx),
            runs.tags[first_pos[by_first]].tolist(),
            counts[by_first].tolist())

        dump = FrozenMach(frame.index, outcome.resident_tags,
                          pointers[outcome.resident_source],
                          outcome.resident_aux)
        ring.ingest_frozen(dump)

        matches = FrameMatches(
            intra=n_intra, inter=n_inter, none=len(stored_idx))
        return self._finish_mach(
            frame, kinds, pointers, digests_out,
            table_base, bases_base, data_base, data_bytes, dump, matches,
            groups)

    def _finish_mach(self, frame: DecodedFrame, kinds: np.ndarray,
                     pointers: np.ndarray, digests_out: np.ndarray,
                     table_base: int, bases_base: int, data_base: int,
                     data_bytes: int, dump: FrozenMach,
                     matches: FrameMatches,
                     groups: DigestGroups) -> WritebackResult:
        dump_base = data_base + data_bytes
        dump_bytes = dump.entries * _DUMP_ENTRY_BYTES
        layout = FrameLayout(
            frame_index=frame.index,
            mode=self._digest_layout,
            n_blocks=frame.n_blocks,
            block_bytes=frame.block_bytes,
            kinds=kinds,
            pointers=pointers,
            digests=digests_out,
            bases_present=self._use_gradient,
            table_base=table_base,
            bases_base=bases_base,
            data_base=data_base,
            data_bytes=data_bytes,
            dump_base=dump_base,
            dump_bytes=dump_bytes,
            pointer_bytes=self.mach_config.pointer_bytes,
            base_bytes=self.mach_config.base_bytes,
        )
        write_lines = self._write_lines(layout)
        return WritebackResult(layout, write_lines, matches, dump,
                               layout.total_bytes, groups)

    def _write_lines(self, layout: FrameLayout) -> np.ndarray:
        """Line-granular write addresses for the whole frame."""
        line = self.line_bytes
        if self.mach_config.coalescing:
            parts = [
                sequential_lines(layout.table_base, layout.table_bytes, line),
                sequential_lines(layout.bases_base, layout.bases_bytes, line),
                sequential_lines(layout.data_base, layout.data_bytes, line),
                sequential_lines(layout.dump_base, layout.dump_bytes, line),
            ]
            return np.concatenate(parts)
        # Uncoalesced ablation: one line write per pointer/base, and one
        # (or two, straddling) per stored block.
        stored = layout.mask(RecordKind.STORED)
        parts = [
            uncoalesced_stream_lines(
                layout.table_base, layout.pointer_bytes, layout.n_blocks, line),
            uncoalesced_stream_lines(
                layout.bases_base, layout.base_bytes,
                layout.n_blocks if layout.bases_present else 0, line),
        ]
        stored_addrs = layout.pointers[stored]
        if len(stored_addrs):
            first = (stored_addrs // line) * line
            last = ((stored_addrs + layout.block_bytes - 1) // line) * line
            parts.append(first)
            parts.append(last[last != first])
        parts.append(
            sequential_lines(layout.dump_base, layout.dump_bytes, line))
        return np.concatenate(parts)
