"""DC read path (paper Sec. 5).

A display scan over a MACH-compacted frame walks the pointer/digest
table in raster order and fetches each block record:

* STORED / POINTER records fetch the block's 48 bytes, which straddle
  one or two 64-byte lines (*request fragmentation*); the display cache
  absorbs refetches of recently-touched lines (intra matches, straddle
  partners).
* DIGEST records resolve through the MACH buffer; a buffer miss costs a
  translation read into the in-memory MACH dump plus the block fetch.

The engine emits the timestamped memory reads that actually escaped to
DRAM, plus the statistics behind Figs. 10c/10d/10e.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..config import DisplayConfig, MachConfig, VideoConfig
from ..display.display_cache import simulate_direct_mapped_array
from ..display.mach_buffer import MachBuffer
from .coalesce import sequential_lines
from .layout import FrameLayout, LayoutMode, RecordKind
from .writeback import WritebackResult


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
    """Memory reads of one frame scan."""

    times: np.ndarray
    addresses: np.ndarray

    @property
    def count(self) -> int:
        return len(self.times)


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

    def scan(self, writeback: WritebackResult,
             window: Tuple[float, float]) -> ScanResult:
        """Scan one frame out of memory; returns the DRAM reads issued."""
        layout = writeback.layout
        self.stats.frames += 1
        self.stats.raw_equivalent_lines += self._raw_lines(layout)
        if layout.mode is LayoutMode.RAW:
            return self._scan_raw(layout, window)
        return self._scan_mach(writeback, window)

    # -- raw path ----------------------------------------------------------------

    def _raw_lines(self, layout: FrameLayout) -> int:
        """Lines a RAW scan of this content needs (the Fig. 10e baseline)."""
        raw_bytes = layout.raw_bytes
        return -(-raw_bytes // self.line_bytes)

    def _scan_raw(self, layout: FrameLayout,
                  window: Tuple[float, float]) -> ScanResult:
        addresses = sequential_lines(
            layout.data_base, layout.data_bytes, self.line_bytes)
        self.stats.mem_reads += len(addresses)
        return self._timed(addresses, window)

    # -- MACH path ------------------------------------------------------------------

    def _scan_mach(self, writeback: WritebackResult,
                   window: Tuple[float, float]) -> ScanResult:
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
        ptr_mask = layout.kinds != np.uint8(int(RecordKind.DIGEST))
        digest_mask = ~ptr_mask
        stats.pointer_records += int(ptr_mask.sum())
        stats.digest_records += int(digest_mask.sum())

        ptr_addrs = layout.pointers[ptr_mask]
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

        # Digest records through the MACH buffer.
        digest_values = layout.digests[digest_mask]
        extra_addrs: List[np.ndarray] = []
        if len(digest_values):
            if self.use_mach_buffer:
                hits_mask, missed = self.buffer.process_frame(digest_values)
                stats.mb_hits += int(hits_mask.sum())
                stats.mb_misses += len(digest_values) - int(hits_mask.sum())
                if len(missed):
                    # Each miss: one translation read into the dump, plus
                    # the block fetch at the donor address.
                    stats.translation_reads += len(missed)
                    extra_addrs.append(sequential_lines(
                        layout.dump_base, len(missed) * line, line))
                    donor = layout.pointers[digest_mask]
                    missed_mask = ~hits_mask
                    extra_addrs.append(
                        (donor[missed_mask] // line) * line)
            else:
                # Ablation: no MACH buffer — every digest record costs a
                # translation read and a block fetch.
                stats.mb_misses += len(digest_values)
                stats.translation_reads += len(digest_values)
                extra_addrs.append(sequential_lines(
                    layout.dump_base, len(digest_values) * line, line))
                extra_addrs.append(
                    (layout.pointers[digest_mask] // line) * line)

        parts = [prefetch_addrs, meta_addrs, block_miss_lines]
        parts.extend(extra_addrs)
        addresses = np.concatenate(parts)
        stats.mem_reads += len(addresses)
        return self._timed(addresses, window)

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _timed(addresses: np.ndarray,
               window: Tuple[float, float]) -> ScanResult:
        start, end = window
        n = len(addresses)
        times = (np.linspace(start, end, n, endpoint=False)
                 if n else np.empty(0, dtype=np.float64))
        return ScanResult(times=times, addresses=addresses)
