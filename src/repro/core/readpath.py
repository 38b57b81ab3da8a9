"""DC read path (paper Sec. 5).

A display scan over a MACH-compacted frame walks the pointer/digest
table in raster order and fetches each block record:

* STORED / POINTER records fetch the block's 48 bytes, which straddle
  one or two 64-byte lines (*request fragmentation*); the display cache
  absorbs refetches of recently-touched lines (intra matches, straddle
  partners).
* DIGEST records resolve through the MACH buffer, once per distinct
  digest (the writeback groups them, :class:`~repro.core.writeback.\
DigestGroups`); a buffer miss costs a translation read into the
  in-memory MACH dump plus the block fetch.

The engine emits the timestamped memory reads that actually escaped to
DRAM, plus the statistics behind Figs. 10c/10d/10e.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DisplayConfig, MachConfig, VideoConfig
from ..display.display_cache import simulate_direct_mapped_array
from ..display.mach_buffer import MachBuffer
from .coalesce import sequential_lines
from .layout import FrameLayout, LayoutMode, RecordKind
from .writeback import DigestGroups, WritebackResult


@dataclass
class ReadStats:
    """Aggregate DC-side read accounting across a run."""

    frames: int = 0
    raw_equivalent_lines: int = 0  # what a RAW scan would have read
    meta_reads: int = 0  # pointer table + bitmap + bases
    pointer_records: int = 0
    digest_records: int = 0
    fragmented_records: int = 0
    block_line_requests: int = 0  # before the display cache
    dc_hits: int = 0
    mb_hits: int = 0
    mb_misses: int = 0
    translation_reads: int = 0
    prefetch_reads: int = 0
    mem_reads: int = 0  # everything that reached DRAM

    @property
    def savings(self) -> float:
        """Fractional DC memory-access saving vs the RAW scan (Fig. 10e)."""
        if not self.raw_equivalent_lines:
            return 0.0
        return 1.0 - self.mem_reads / self.raw_equivalent_lines

    @property
    def digest_fraction(self) -> float:
        """Fraction of block records indexed by digest (Fig. 10d)."""
        total = self.pointer_records + self.digest_records
        return self.digest_records / total if total else 0.0

    @property
    def fragmentation_rate(self) -> float:
        """Fraction of pointer records issuing two requests (Sec. 5.2)."""
        if not self.pointer_records:
            return 0.0
        return self.fragmented_records / self.pointer_records


@dataclass(frozen=True)
class ScanResult:
    """Memory reads of one frame scan, in issue order."""

    addresses: np.ndarray

    @property
    def count(self) -> int:
        return len(self.addresses)


class DisplayReadEngine:
    """Stateful DC read path for one playback run."""

    def __init__(
        self,
        display: DisplayConfig,
        mach: MachConfig,
        video: VideoConfig,
        line_bytes: int = 64,
        use_display_cache: bool = True,
        use_mach_buffer: bool = True,
        buffer_policy: str = "lazy",
    ) -> None:
        self.display = display
        self.mach = mach
        self.video = video
        self.line_bytes = line_bytes
        self.use_display_cache = use_display_cache
        self.use_mach_buffer = use_mach_buffer
        self.stats = ReadStats()
        self.buffer = MachBuffer(mach.buffer_entries, policy=buffer_policy)
        self._dc_slots = display.scaled_cache_bytes(video, line_bytes) // line_bytes
        self._dc_state = np.full(self._dc_slots, -1, dtype=np.int64)

    # -- public API -------------------------------------------------------------

    def scan(self, writeback: WritebackResult) -> ScanResult:
        """Scan one frame out of memory; returns the DRAM reads issued."""
        layout = writeback.layout
        self.stats.frames += 1
        self.stats.raw_equivalent_lines += self._raw_lines(layout)
        if layout.mode is LayoutMode.RAW:
            return self._scan_raw(layout)
        return self._scan_mach(writeback)

    # -- raw path ----------------------------------------------------------------

    def _raw_lines(self, layout: FrameLayout) -> int:
        """Lines a RAW scan of this content needs (the Fig. 10e baseline)."""
        raw_bytes = layout.raw_bytes
        return -(-raw_bytes // self.line_bytes)

    def _scan_raw(self, layout: FrameLayout) -> ScanResult:
        addresses = sequential_lines(
            layout.data_base, layout.data_bytes, self.line_bytes)
        self.stats.mem_reads += len(addresses)
        return ScanResult(addresses)

    # -- MACH path ------------------------------------------------------------------

    def _scan_mach(self, writeback: WritebackResult) -> ScanResult:
        layout = writeback.layout
        line = self.line_bytes
        stats = self.stats

        # Eager policy: prefetch the newly dumped MACH before scanning.
        prefetch_addrs = np.empty(0, dtype=np.int64)
        if (self.use_mach_buffer and self.buffer.policy == "eager"
                and writeback.dump is not None):
            fetched = self.buffer.prefetch_dump(writeback.dump.digests)
            dump_lines = sequential_lines(
                layout.dump_base, layout.dump_bytes, line)
            # Each prefetched entry also fetches its block (~one line).
            prefetch_addrs = np.concatenate([
                dump_lines,
                layout.data_base + np.arange(fetched, dtype=np.int64) * line,
            ])
            stats.prefetch_reads += len(prefetch_addrs)

        # Metadata: the table (and bases) are streamed alongside blocks.
        meta_addrs = np.concatenate([
            sequential_lines(layout.table_base, layout.table_bytes, line),
            sequential_lines(layout.bases_base, layout.bases_bytes, line),
        ])
        stats.meta_reads += len(meta_addrs)

        # Block records, in raster order.
        groups = writeback.digest_groups
        digest_records = int(groups.counts.sum())
        stats.pointer_records += layout.n_blocks - digest_records
        stats.digest_records += digest_records

        ptr_addrs = layout.pointers[
            layout.kinds != np.uint8(int(RecordKind.DIGEST))]
        first = (ptr_addrs // line) * line
        last = ((ptr_addrs + layout.block_bytes - 1) // line) * line
        straddle = last != first
        stats.fragmented_records += int(straddle.sum())
        # Per-record line sequence: first line, then the straddle line.
        counts = 1 + straddle.astype(np.int64)
        block_lines = np.empty(int(counts.sum()), dtype=np.int64)
        positions = np.cumsum(counts) - counts
        block_lines[positions] = first
        block_lines[positions[straddle] + 1] = last[straddle]
        stats.block_line_requests += len(block_lines)

        if self.use_display_cache:
            hits = simulate_direct_mapped_array(
                block_lines // line, self._dc_slots, self._dc_state)
            stats.dc_hits += int(hits.sum())
            block_miss_lines = block_lines[~hits]
        else:
            block_miss_lines = block_lines

        # Digest records through the MACH buffer, one lookup per
        # distinct digest.  Without the buffer (the ablation) every
        # record misses and pays its own translation read.
        parts = [prefetch_addrs, meta_addrs, block_miss_lines]
        if digest_records:
            if self.use_mach_buffer:
                missed = self.buffer.serve(groups.digests, groups.counts)
                translations = int(np.count_nonzero(missed))
            else:
                missed = np.ones(len(groups.digests), dtype=bool)
                translations = digest_records
            miss_blocks = self._miss_blocks(layout, groups, missed)
            stats.mb_misses += len(miss_blocks)
            stats.mb_hits += digest_records - len(miss_blocks)
            if len(miss_blocks):
                # Each miss: one translation read into the dump, plus
                # the block fetch at the donor address.
                stats.translation_reads += translations
                parts.append(sequential_lines(
                    layout.dump_base, translations * line, line))
                parts.append((layout.pointers[miss_blocks] // line) * line)

        addresses = np.concatenate(parts)
        stats.mem_reads += len(addresses)
        return ScanResult(addresses)

    def _miss_blocks(self, layout: FrameLayout, groups: DigestGroups,
                     missed: np.ndarray) -> np.ndarray:
        """Blocks, in raster order, of the DIGEST records that missed.

        A lazy buffer misses on a missed digest's first record only;
        otherwise every record of a missed digest misses.
        """
        if self.use_mach_buffer and self.buffer.policy == "lazy":
            return np.sort(groups.first_block[missed])
        if not missed.any():
            return np.empty(0, dtype=np.int64)
        records = np.flatnonzero(layout.mask(RecordKind.DIGEST))
        return records[np.isin(layout.digests[records],
                               groups.digests[missed])]
