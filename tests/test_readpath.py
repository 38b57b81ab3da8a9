"""Tests for the display read path (fragmentation, display cache,
MACH buffer interplay)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import BASELINE, GAB, DisplayConfig, MachConfig, VideoConfig
from repro.core.coalesce import sequential_lines
from repro.core.layout import RecordKind
from repro.core.readpath import DisplayReadEngine
from repro.core.writeback import WritebackEngine
from repro.video import SyntheticVideo, workload
from repro.video.frame import DecodedFrame, FrameType

from .conftest import RecordMachBuffer


def tiny_video() -> VideoConfig:
    return VideoConfig(width=32, height=16)  # 32 blocks


def mach_config(**overrides) -> MachConfig:
    defaults = dict(num_machs=4, entries_per_mach=128, ways=4,
                    buffer_entries=512)
    defaults.update(overrides)
    return MachConfig(**defaults)


def make_engine(video, mach, **kwargs) -> DisplayReadEngine:
    return DisplayReadEngine(DisplayConfig(), mach, video, **kwargs)


def frame_of(blocks, index=0) -> DecodedFrame:
    return DecodedFrame(index=index, frame_type=FrameType.P, blocks=blocks,
                        complexity=1.0, encoded_bits=1000)


def noise_frame(video, seed=0, index=0) -> DecodedFrame:
    rng = np.random.default_rng(seed)
    return frame_of(rng.integers(0, 256,
                                 (video.blocks_per_frame, video.block_bytes),
                                 dtype=np.uint8), index)


class TestRawScan:
    def test_reads_whole_frame_sequentially(self):
        video = tiny_video()
        writeback = WritebackEngine(video, mach_config(), BASELINE)
        reader = make_engine(video, mach_config())
        result = writeback.process_frame(noise_frame(video), 0)
        scan = reader.scan(result)
        assert scan.count == video.frame_bytes // 64
        assert (np.diff(scan.addresses) == 64).all()
        assert reader.stats.savings == pytest.approx(0.0)


class TestMachScan:
    def _pipeline(self, video, mach, frames, **reader_kwargs):
        writeback = WritebackEngine(video, mach, GAB)
        reader = make_engine(video, mach, **reader_kwargs)
        scans = []
        for index, frame in enumerate(frames):
            result = writeback.process_frame(frame, index << 16)
            scans.append(reader.scan(result))
        return reader, scans

    def test_no_match_frame_costs_more_than_raw(self):
        """Pure pointer indirection adds metadata + fragmentation."""
        video = tiny_video()
        reader, _ = self._pipeline(video, mach_config(),
                                   [noise_frame(video)])
        assert reader.stats.savings < 0

    def test_repeated_frames_save_reads(self):
        video = tiny_video()
        base = noise_frame(video, seed=5)
        frames = [frame_of(base.blocks.copy(), i) for i in range(4)]
        reader, scans = self._pipeline(video, mach_config(), frames)
        # Later frames are nearly all digest records served by the
        # MACH buffer: far fewer reads than the first scan.
        assert scans[-1].count < scans[0].count * 0.7
        assert reader.stats.mb_hits > 0

    def test_digest_fraction_reflects_inter_matches(self):
        video = tiny_video()
        base = noise_frame(video, seed=5)
        frames = [frame_of(base.blocks.copy(), i) for i in range(3)]
        reader, _ = self._pipeline(video, mach_config(), frames)
        assert reader.stats.digest_fraction > 0.4

    def test_fragmentation_counted(self):
        video = tiny_video()
        reader, _ = self._pipeline(video, mach_config(),
                                   [noise_frame(video)])
        # 48-byte blocks at 48-byte strides: the straddle fraction is
        # 50-75 % depending on the data region's alignment (the paper
        # reports "more than 45 %").
        assert 0.45 <= reader.stats.fragmentation_rate <= 1.0

    def test_display_cache_absorbs_straddle_partners(self):
        video = tiny_video()
        with_dc, _ = self._pipeline(video, mach_config(),
                                    [noise_frame(video)],
                                    use_display_cache=True)
        without_dc, _ = self._pipeline(video, mach_config(),
                                       [noise_frame(video)],
                                       use_display_cache=False)
        assert with_dc.stats.mem_reads < without_dc.stats.mem_reads
        assert with_dc.stats.dc_hits > 0
        assert without_dc.stats.dc_hits == 0

    def test_no_mach_buffer_pays_translation(self):
        video = tiny_video()
        base = noise_frame(video, seed=5)
        # Three identical frames: the lazy buffer fills during frame 1
        # and serves frame 2, which the no-buffer ablation cannot.
        frames = [frame_of(base.blocks.copy(), i) for i in range(3)]
        with_buffer, _ = self._pipeline(video, mach_config(), frames,
                                        use_mach_buffer=True)
        no_buffer, _ = self._pipeline(video, mach_config(), frames,
                                      use_mach_buffer=False)
        assert no_buffer.stats.mem_reads > with_buffer.stats.mem_reads
        assert no_buffer.stats.translation_reads > 0

    def test_eager_policy_prefetches(self):
        video = tiny_video()
        base = noise_frame(video, seed=5)
        frames = [frame_of(base.blocks.copy(), i) for i in range(2)]
        reader, _ = self._pipeline(video, mach_config(), frames,
                                   buffer_policy="eager")
        assert reader.stats.prefetch_reads > 0
        assert reader.buffer.policy == "eager"

    def test_small_buffer_misses(self):
        video = tiny_video()
        base = noise_frame(video, seed=5)
        frames = [frame_of(base.blocks.copy(), i) for i in range(3)]
        big, _ = self._pipeline(video, mach_config(buffer_entries=512),
                                frames)
        small, _ = self._pipeline(video, mach_config(buffer_entries=4),
                                  frames)
        assert small.stats.mb_misses > big.stats.mb_misses

    def test_stats_accumulate_across_frames(self):
        video = tiny_video()
        reader, _ = self._pipeline(
            video, mach_config(),
            [noise_frame(video, seed=s, index=s) for s in range(3)])
        assert reader.stats.frames == 3
        assert reader.stats.raw_equivalent_lines == 3 * (
            video.frame_bytes // 64)


def _record_level_digest_reads(layout, buffer, line=64):
    """The DIGEST records' reads served record by record, in raster
    order: ``(addresses, hits, misses, translation reads)``.  ``buffer``
    None is the no-buffer ablation."""
    digest_mask = layout.mask(RecordKind.DIGEST)
    values = layout.digests[digest_mask]
    donors = (layout.pointers[digest_mask] // line) * line
    if buffer is None:
        hits = np.zeros(len(values), dtype=bool)
        translations = len(values)
    else:
        hits, missed = buffer.process_frame(values)
        translations = len(missed)
    addresses = np.concatenate((
        sequential_lines(layout.dump_base, translations * line, line),
        donors[~hits]))
    return addresses, int(hits.sum()), int((~hits).sum()), translations


class TestDigestReadsMatchRecordLevel:
    """Serving distinct digests issues the same DRAM reads, in the same
    order, as serving every DIGEST record through the record-level
    buffer (``tests/conftest.py``)."""

    @pytest.mark.parametrize("policy, use_buffer, entries", [
        ("lazy", True, 4), ("lazy", True, 512), ("eager", True, 4),
        ("eager", True, 512), ("lazy", False, 512)])
    def test_scan_tail_and_stats(self, policy, use_buffer, entries):
        eager = policy == "eager" and use_buffer
        video = VideoConfig(width=64, height=32)
        mach = mach_config(buffer_entries=entries)
        writer = WritebackEngine(video, mach, GAB)
        reader = make_engine(video, mach, buffer_policy=policy,
                             use_mach_buffer=use_buffer)
        reference = RecordMachBuffer(entries, policy=policy)
        frames = SyntheticVideo(video, workload("V8"), seed=3, n_frames=12)
        served = missed = 0
        for index, frame in enumerate(frames):
            result = writer.process_frame(frame, index << 20)
            # Every other frame is scanned twice, as a dropped refresh
            # re-scans the last frame shown.
            for _ in range(1 + index % 2):
                if eager:  # every eager scan prefetches its frame's dump
                    reference.prefetch_dump(result.dump.digests)
                before = dict(vars(reader.stats))
                scan = reader.scan(result)
                want, hits, misses, translations = \
                    _record_level_digest_reads(
                        result.layout, reference if use_buffer else None)
                stats = vars(reader.stats)
                assert stats["mb_hits"] - before["mb_hits"] == hits
                assert stats["mb_misses"] - before["mb_misses"] == misses
                assert (stats["translation_reads"]
                        - before["translation_reads"]) == translations
                assert np.array_equal(scan.addresses[len(scan.addresses)
                                                     - len(want):], want)
                served += hits + misses
                missed += misses
        assert served > 0
        # A large eager buffer holds every digest it is asked for.
        assert (missed > 0) != (eager and entries == 512)
        if use_buffer:
            for counter in ("hits", "misses", "installed", "evicted"):
                assert (getattr(reader.buffer, counter)
                        == getattr(reference, counter))
            assert list(reader.buffer._resident) == list(reference._resident)
