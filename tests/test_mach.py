"""Tests for the MACH content cache (ring, freezing, CO-MACH)."""

from __future__ import annotations

import pytest

from repro.config import MachConfig, VideoConfig
from repro.errors import SchedulingError
from repro.core.mach import MachStats, split_digest

from .mach_oracle import FrameMach, MatchKind, WalkRing, frozen_table, record


def small_mach(**overrides) -> MachConfig:
    defaults = dict(num_machs=3, entries_per_mach=8, ways=2)
    defaults.update(overrides)
    return MachConfig(**defaults)


class TestFrameMach:
    def test_insert_lookup(self):
        mach = FrameMach(small_mach(), frame_index=0)
        mach.insert(0x1234, address=1000, aux=7)
        assert mach.lookup(0x1234, aux=7) == 1000

    def test_miss(self):
        mach = FrameMach(small_mach(), frame_index=0)
        assert mach.lookup(0x1234, aux=0) is None

    def test_capacity_eviction(self):
        config = small_mach(entries_per_mach=4, ways=2)  # 2 sets x 2 ways
        mach = FrameMach(config, frame_index=0)
        # Fill one set (even digests map to set 0 via low bit).
        for digest in (0, 2, 4):
            mach.insert(digest, address=digest * 10, aux=0)
        assert mach.lookup(0, aux=0) is None  # LRU victim
        assert mach.lookup(4, aux=0) == 40

    def test_unbounded_oracle_never_evicts(self):
        mach = FrameMach(small_mach(entries_per_mach=4, ways=2),
                         frame_index=0, unbounded=True)
        for digest in range(1000):
            mach.insert(digest, address=digest, aux=0)
        assert mach.lookup(999, aux=0) == 999
        assert mach.lookup(0, aux=0) == 0

    def test_freeze_snapshot(self):
        mach = FrameMach(small_mach(), frame_index=5)
        mach.insert(10, 100, 0)
        mach.insert(11, 200, 0)
        frozen = mach.freeze()
        assert frozen.frame_index == 5
        assert frozen.entries == 2
        assert frozen_table(frozen)[10] == (100, 0)
        assert set(frozen.digests.tolist()) == {10, 11}


class TestCoMach:
    def test_detected_collision_goes_to_co_mach(self):
        config = small_mach(co_mach=True, co_mach_entries=8)
        mach = FrameMach(config, frame_index=0)
        stats = MachStats()
        mach.insert(0x42, address=1, aux=100)
        # Same CRC32, different CRC16: a detected collision.
        assert mach.lookup(0x42, aux=999, stats=stats) is None
        assert stats.detected_collisions == 1
        # The colliding block gets stored; spilled into CO-MACH.
        mach.insert(0x42, address=2, aux=999)
        assert mach.lookup(0x42, aux=999, stats=stats) == 2
        assert stats.co_mach_hits == 1
        # The original entry is still intact.
        assert mach.lookup(0x42, aux=100, stats=stats) == 1

    def test_without_co_mach_collision_is_silent(self):
        mach = FrameMach(small_mach(co_mach=False), frame_index=0)
        stats = MachStats()
        mach.insert(0x42, address=1, aux=100)
        # Wrong aux still "hits" (the hardware cannot tell) but the
        # tracker records the silent collision.
        assert mach.lookup(0x42, aux=999, stats=stats) == 1
        assert stats.silent_collisions == 1


class TestMachRing:
    def test_intra_before_inter(self):
        ring = WalkRing(small_mach())
        ring.begin_frame(0)
        ring.insert(7, address=100)
        ring.end_frame()
        ring.begin_frame(1)
        ring.insert(7, address=200)  # same digest stored again this frame
        kind, address = ring.lookup(7)
        assert kind is MatchKind.INTRA
        assert address == 200

    def test_inter_found_in_frozen(self):
        ring = WalkRing(small_mach())
        ring.begin_frame(0)
        ring.insert(7, address=100)
        ring.end_frame()
        ring.begin_frame(1)
        kind, address = ring.lookup(7)
        assert kind is MatchKind.INTER
        assert address == 100

    def test_newest_frozen_wins(self):
        ring = WalkRing(small_mach())
        for frame, address in ((0, 100), (1, 200)):
            ring.begin_frame(frame)
            ring.insert(7, address=address)
            ring.end_frame()
        ring.begin_frame(2)
        kind, address = ring.lookup(7)
        assert kind is MatchKind.INTER
        assert address == 200

    def test_ring_window_expires(self):
        config = small_mach(num_machs=2)  # current + 1 frozen
        ring = WalkRing(config)
        ring.begin_frame(0)
        ring.insert(7, address=100)
        ring.end_frame()
        for frame in (1, 2):
            ring.begin_frame(frame)
            ring.end_frame()
        ring.begin_frame(3)
        kind, _ = ring.lookup(7)
        assert kind is MatchKind.NONE

    def test_stats_recording(self):
        ring = WalkRing(small_mach())
        ring.begin_frame(0)
        record(ring.stats, MatchKind.NONE, 5)
        record(ring.stats, MatchKind.INTRA, 5)
        record(ring.stats, MatchKind.INTER, 5)
        assert ring.stats.total == 3
        assert ring.stats.match_rate == pytest.approx(2 / 3)

    def test_begin_twice_raises(self):
        ring = WalkRing(small_mach())
        ring.begin_frame(0)
        with pytest.raises(SchedulingError):
            ring.begin_frame(1)

    def test_lookup_without_frame_raises(self):
        ring = WalkRing(small_mach())
        with pytest.raises(SchedulingError):
            ring.lookup(1)


class TestMachStats:
    def test_top_match_share(self):
        stats = MachStats()
        for _ in range(8):
            record(stats, MatchKind.INTRA, 1)
        for _ in range(2):
            record(stats, MatchKind.INTER, 2)
        assert stats.top_match_share(1) == pytest.approx(0.8)
        assert stats.top_match_share(2) == pytest.approx(1.0)

    def test_empty_share(self):
        assert MachStats().top_match_share() == 0.0


class TestSplitDigest:
    def test_split(self):
        tag, aux = split_digest((0xBEEF << 32) | 0xDEADC0DE)
        assert tag == 0xDEADC0DE
        assert aux == 0xBEEF


class TestScaledConfig:
    def test_scaling_preserves_structure(self):
        config = MachConfig()
        video = VideoConfig(width=192, height=108)
        scaled = config.scaled_for(video)
        assert scaled.num_machs == config.num_machs
        assert scaled.entries_per_mach % scaled.ways == 0
        assert scaled.entries_per_mach < config.entries_per_mach
        assert scaled.buffer_entries >= (scaled.num_machs
                                         * scaled.entries_per_mach)

    def test_native_resolution_not_scaled(self):
        config = MachConfig()
        video = VideoConfig(width=3840, height=2160)
        assert config.scaled_for(video) is config
