"""Tests for the display subsystem: frame buffers, vsync, MACH buffer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DisplayConfig, MachConfig, VideoConfig
from repro.display import (
    DisplayController,
    FrameBufferPool,
    MachBuffer,
)
from repro.errors import ConfigError, SchedulingError

from .conftest import serve_records
from .mach_oracle import FrameMach


class TestFrameBufferPool:
    def make_pool(self, slots=3, retention=0) -> FrameBufferPool:
        return FrameBufferPool(region_base=0, slot_bytes=1 << 16,
                               slots=slots, retention=retention)

    def test_admission_and_addresses(self):
        pool = self.make_pool()
        a = pool.admit(0)
        b = pool.admit(1)
        assert a.base == 0
        assert b.base == 1 << 16
        assert pool.live_count == 2

    def test_full_pool_rejects(self):
        pool = self.make_pool(slots=2)
        pool.admit(0)
        pool.admit(1)
        assert not pool.can_admit()
        with pytest.raises(SchedulingError):
            pool.admit(2)

    def test_display_retires_without_retention(self):
        pool = self.make_pool(slots=2)
        pool.admit(0)
        pool.mark_displayed(0)
        assert pool.live_count == 0

    def test_retention_holds_referenced_frames(self):
        pool = self.make_pool(slots=6, retention=2)
        for i in range(4):
            pool.admit(i)
        for i in range(4):
            pool.mark_displayed(i)
        # displayed_upto=3, retention=2: frames 2, 3 must stay live.
        assert not pool.is_live(0)
        assert not pool.is_live(1)
        assert pool.is_live(2)
        assert pool.is_live(3)

    def test_footprint_tracking(self):
        pool = self.make_pool()
        pool.admit(0)
        pool.set_footprint(0, 1000)
        pool.admit(1)
        pool.set_footprint(1, 500)
        assert pool.live_footprint == 1500
        pool.mark_displayed(0)
        assert pool.live_footprint == 500
        assert pool.peak_footprint == 1500

    def test_peak_native_rescale(self):
        pool = self.make_pool()
        pool.admit(0)
        pool.set_footprint(0, 100)
        video = VideoConfig(width=192, height=108)
        assert pool.peak_footprint_native(video) == pytest.approx(100 * 400)

    def test_out_of_order_display_of_skipped_frame(self):
        pool = self.make_pool(slots=4)
        pool.admit(0)
        pool.admit(1)
        pool.mark_displayed(1)  # frame 0 skipped (dropped)
        assert pool.is_live(0)  # not displayed yet
        pool.mark_displayed(0)  # late retire
        assert not pool.is_live(0)

    def test_slot_lookup_errors(self):
        pool = self.make_pool()
        with pytest.raises(SchedulingError):
            pool.slot(5)

    def test_needs_two_slots(self):
        with pytest.raises(SchedulingError):
            FrameBufferPool(0, 64, slots=1)


class TestDisplayController:
    def test_vsync_schedule(self):
        dc = DisplayController(DisplayConfig(refresh_hz=60))
        assert dc.vsync_time(0) == pytest.approx(0.0)
        assert dc.vsync_time(3) == pytest.approx(3 / 60)

    def test_scan_window_duty(self):
        dc = DisplayController(DisplayConfig(refresh_hz=60), scan_duty=0.5)
        start, end = dc.scan_window(1)
        assert start == pytest.approx(1 / 60)
        assert end - start == pytest.approx(0.5 / 60)

    def test_drop_accounting(self):
        dc = DisplayController(DisplayConfig())
        dc.record_refresh(0, ready=True)
        dc.record_refresh(1, ready=False)
        dc.record_refresh(2, ready=True)
        assert dc.stats.frames_shown == 2
        assert dc.stats.drops == 1
        assert dc.stats.dropped_frames == [1]
        assert dc.stats.drop_rate == pytest.approx(1 / 3)


class TestMachBuffer:
    def test_lazy_first_use_misses_then_hits(self):
        buffer = MachBuffer(capacity_entries=16, policy="lazy")
        digests = np.asarray([1, 2, 1, 3, 2], dtype=np.uint64)
        hits, missed = serve_records(buffer, digests)
        assert list(hits) == [False, False, True, False, True]
        assert set(missed.tolist()) == {1, 2, 3}

    def test_lazy_hits_across_frames(self):
        buffer = MachBuffer(capacity_entries=16, policy="lazy")
        serve_records(buffer, [7, 8])
        hits, missed = serve_records(buffer, [7, 9])
        assert list(hits) == [True, False]
        assert missed.tolist() == [9]

    def test_eager_needs_prefetch(self):
        buffer = MachBuffer(capacity_entries=16, policy="eager")
        hits, _ = serve_records(buffer, [5])
        assert not hits[0]
        buffer.prefetch_dump(np.asarray([5], dtype=np.uint64))
        hits, _ = serve_records(buffer, [5])
        assert hits[0]

    def test_eager_prefetch_of_oversized_dump_keeps_highest_digests(self):
        mach = FrameMach(MachConfig(), frame_index=0)
        # Set-index order (low bits) differs from digest order here.
        for digest in (0x300, 0x101, 0x02, 0x203, 0x04):
            mach.insert(digest, address=digest, aux=0)
        buffer = MachBuffer(capacity_entries=3, policy="eager")
        assert buffer.prefetch_dump(mach.freeze().digests) == 5
        hits, _ = serve_records(buffer, [0x02, 0x04, 0x101, 0x203, 0x300])
        assert list(hits) == [False, False, True, True, True]

    def test_capacity_eviction_fifo(self):
        buffer = MachBuffer(capacity_entries=2, policy="lazy")
        serve_records(buffer, [1, 2, 3])
        assert buffer.resident_entries == 2
        hits, _ = serve_records(buffer, [1])
        assert not hits[0]  # 1 was the oldest, evicted
        hits, _ = serve_records(buffer, [3])
        assert hits[0]

    def test_hit_rate(self):
        buffer = MachBuffer(capacity_entries=8)
        serve_records(buffer, [1, 1, 1, 1])
        assert buffer.hit_rate == pytest.approx(0.75)

    def test_empty_frame(self):
        buffer = MachBuffer(capacity_entries=8)
        hits, missed = serve_records(buffer, [])
        assert len(hits) == 0 and len(missed) == 0

    def test_serve_counts_records_per_digest(self):
        lazy = MachBuffer(capacity_entries=8, policy="lazy")
        eager = MachBuffer(capacity_entries=8, policy="eager")
        digests = np.asarray([3, 9], dtype=np.uint64)
        counts = np.asarray([4, 2], dtype=np.int64)
        for buffer in (lazy, eager):
            assert buffer.serve(digests, counts).tolist() == [True, True]
        # Lazy: one miss per digest; eager: every record misses.
        assert (lazy.hits, lazy.misses, lazy.installed) == (4, 2, 2)
        assert (eager.hits, eager.misses, eager.installed) == (0, 6, 0)
        assert lazy.serve(digests, counts).tolist() == [False, False]

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            MachBuffer(capacity_entries=0)
        with pytest.raises(ConfigError):
            MachBuffer(capacity_entries=4, policy="psychic")
