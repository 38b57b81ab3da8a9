"""Tests for fault injection and the resilience machinery.

The two load-bearing properties from the issue:

* same seed -> bit-identical fault schedule and results;
* ``fault_rate=0`` -> exactly today's (fault-free) results.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import (
    GAB,
    RACE_TO_SLEEP,
    FaultConfig,
    NetworkConfig,
    SimulationConfig,
    VideoConfig,
)
from repro.core.pipeline import simulate
from repro.errors import ConfigError, FaultError
from repro.faults import FaultPlan, SegmentFault, conceal_blocks
from repro.network import deliver_for_config
from repro.units import MBPS
from repro.video import workload
from repro.video.codec import Decoder, Encoder
from repro.errors import CodecError


def _network(**kwargs) -> NetworkConfig:
    base = dict(mode="trace", trace_kind="constant",
                mean_bandwidth=24 * MBPS, abr="fixed", abr_fixed_rung=2,
                download_mode="burst", trace_seed=3)
    base.update(kwargs)
    return NetworkConfig(**base)


class TestFaultConfig:
    def test_defaults_inert(self):
        cfg = FaultConfig()
        assert not cfg.enabled
        assert FaultPlan.from_config(cfg) is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultConfig(segment_loss=1.5)
        with pytest.raises(ConfigError):
            FaultConfig(segment_loss=0.6, segment_corruption=0.6)
        with pytest.raises(ConfigError):
            FaultConfig(max_retries=-1)
        with pytest.raises(ConfigError):
            FaultConfig(segment_timeout=0.0)

    def test_enabled_flags(self):
        assert FaultConfig(segment_loss=0.1).enabled
        assert FaultConfig(block_bit_error=1e-6).enabled
        assert FaultConfig(digest_collision=1e-4).enabled
        assert not FaultConfig(max_retries=5).enabled


class TestFaultPlanDeterminism:
    def test_same_seed_identical_schedule(self):
        a = FaultPlan(FaultConfig(segment_loss=0.2, segment_corruption=0.1,
                                  segment_timeout_rate=0.05,
                                  block_bit_error=1e-5,
                                  digest_collision=1e-3, seed=42))
        b = FaultPlan(FaultConfig(segment_loss=0.2, segment_corruption=0.1,
                                  segment_timeout_rate=0.05,
                                  block_bit_error=1e-5,
                                  digest_collision=1e-3, seed=42))
        for seg in range(50):
            for attempt in range(4):
                assert (a.segment_fault(seg, attempt)
                        == b.segment_fault(seg, attempt))
                assert (a.loss_fraction(seg, attempt)
                        == b.loss_fraction(seg, attempt))
        for frame in range(20):
            assert (a.corrupt_block_indices(frame, 256, 48)
                    == b.corrupt_block_indices(frame, 256, 48)).all()
            assert np.array_equal(a.digest_collisions(frame, 64),
                                  b.digest_collisions(frame, 64))

    def test_different_seeds_differ(self):
        a = FaultPlan(FaultConfig(segment_loss=0.3, seed=1))
        b = FaultPlan(FaultConfig(segment_loss=0.3, seed=2))
        decisions_a = [a.segment_fault(i, 0) for i in range(200)]
        decisions_b = [b.segment_fault(i, 0) for i in range(200)]
        assert decisions_a != decisions_b

    def test_rates_respected(self):
        plan = FaultPlan(FaultConfig(segment_loss=0.3, seed=9))
        hits = sum(plan.segment_fault(i, 0) is SegmentFault.LOSS
                   for i in range(4000))
        assert 0.25 < hits / 4000 < 0.35

    def test_loss_fraction_interior(self):
        plan = FaultPlan(FaultConfig(segment_loss=0.5, seed=0))
        fractions = [plan.loss_fraction(i, 0) for i in range(100)]
        assert all(0.0 < f < 1.0 for f in fractions)

    def test_block_corruption_scales_with_ber(self):
        low = FaultPlan(FaultConfig(block_bit_error=1e-7, seed=4))
        high = FaultPlan(FaultConfig(block_bit_error=1e-5, seed=4))
        n_low = sum(len(low.corrupt_block_indices(f, 512, 48))
                    for f in range(30))
        n_high = sum(len(high.corrupt_block_indices(f, 512, 48))
                     for f in range(30))
        assert n_high > n_low


class TestConcealBlocks:
    def test_copies_from_previous(self):
        blocks = np.zeros((8, 16), dtype=np.uint8)
        previous = np.full((8, 16), 77, dtype=np.uint8)
        corrupt = np.array([2, 5])
        assert conceal_blocks(blocks, corrupt, previous) == 2
        assert (blocks[2] == 77).all() and (blocks[5] == 77).all()
        assert (blocks[0] == 0).all()

    def test_gray_without_previous(self):
        blocks = np.zeros((4, 16), dtype=np.uint8)
        conceal_blocks(blocks, np.array([1]), None)
        assert (blocks[1] == 128).all()

    def test_out_of_range_raises(self):
        blocks = np.zeros((4, 16), dtype=np.uint8)
        with pytest.raises(FaultError):
            conceal_blocks(blocks, np.array([7]), None)

    def test_empty_is_noop(self):
        blocks = np.zeros((4, 16), dtype=np.uint8)
        assert conceal_blocks(blocks, np.empty(0, dtype=np.int64),
                              None) == 0

    def test_every_block_corrupt(self):
        blocks = np.zeros((4, 16), dtype=np.uint8)
        previous = np.full((4, 16), 9, dtype=np.uint8)
        assert conceal_blocks(blocks, np.arange(4), previous) == 4
        assert (blocks == 9).all()
        # Same frame without a reference: the whole frame goes gray.
        blocks = np.zeros((4, 16), dtype=np.uint8)
        assert conceal_blocks(blocks, np.arange(4), None) == 4
        assert (blocks == 128).all()

    def test_zero_block_frame(self):
        blocks = np.zeros((0, 16), dtype=np.uint8)
        assert conceal_blocks(blocks, np.empty(0, dtype=np.int64),
                              None) == 0
        # Any claimed corruption in an empty frame is out of range.
        with pytest.raises(FaultError):
            conceal_blocks(blocks, np.array([0]), None)

    def test_shape_mismatched_previous_falls_back_to_gray(self):
        blocks = np.zeros((4, 16), dtype=np.uint8)
        previous = np.full((8, 16), 9, dtype=np.uint8)
        conceal_blocks(blocks, np.array([1]), previous)
        assert (blocks[1] == 128).all()


def _faulted_v8(n_frames, seed, fault_seed, **rates):
    """V8 under GAB with the given :class:`FaultConfig` rates."""
    cfg = replace(SimulationConfig(),
                  faults=FaultConfig(seed=fault_seed, **rates))
    return simulate(workload("V8"), GAB, n_frames=n_frames, seed=seed,
                    config=cfg)


class TestDeliveryResilience:
    video = VideoConfig()

    def _deliver(self, faults=None, n_frames=1800, seed=3, **net_kwargs):
        return deliver_for_config(_network(trace_seed=seed, **net_kwargs),
                                  self.video, source=workload("V8"),
                                  n_frames=n_frames, seed=seed,
                                  faults=faults)

    def test_zero_rates_reproduce_clean_run(self):
        clean = self._deliver(faults=None)
        zeroed = self._deliver(faults=FaultConfig())
        assert zeroed.stall_seconds == clean.stall_seconds
        assert zeroed.radio.total == clean.radio.total
        assert zeroed.retries == 0 and zeroed.abandoned_segments == 0
        assert len(zeroed.chunks) == len(clean.chunks)
        assert all(a.finish == b.finish
                   for a, b in zip(zeroed.chunks, clean.chunks))

    def test_same_seed_bit_identical(self):
        faults = FaultConfig(segment_loss=0.2, segment_corruption=0.1,
                             segment_timeout_rate=0.05, seed=11)
        a = self._deliver(faults=faults)
        b = self._deliver(faults=faults)
        assert a.radio.total == b.radio.total
        assert a.retries == b.retries
        assert a.stall_seconds == b.stall_seconds
        assert ([c.finish for c in a.chunks]
                == [c.finish for c in b.chunks])

    def test_retries_cost_radio_energy(self):
        # (delivery seed, frames, fault seed, loss rates); the second is
        # the one-minute segment-loss sweep at seed 7.
        for seed, n_frames, fault_seed, losses in (
                (3, 1800, 5, (0.3,)),
                (7, 3600, 7, (0.02, 0.05, 0.10))):
            clean = self._deliver(n_frames=n_frames, seed=seed)
            assert clean.retries == 0
            retries = []
            for loss in losses:
                lossy = self._deliver(
                    faults=FaultConfig(segment_loss=loss, seed=fault_seed),
                    n_frames=n_frames, seed=seed)
                assert lossy.retries > 0
                assert lossy.failed_attempts >= lossy.retries
                assert lossy.radio.active_energy > clean.radio.active_energy
                retries.append(lossy.retries)
            assert retries == sorted(retries), "retries must rise with loss"

    def test_abandonment_bounded_by_retries(self):
        faults = FaultConfig(segment_loss=0.97, max_retries=2, seed=1)
        lossy = self._deliver(faults=faults, n_frames=600)
        assert lossy.abandoned_segments > 0
        assert all(c.attempts <= 1 + faults.max_retries
                   for c in lossy.chunks)
        abandoned = [c for c in lossy.chunks if c.abandoned]
        assert len(abandoned) == lossy.abandoned_segments
        assert all(c.size_bytes == 0 for c in abandoned)
        # Playback still covers the whole video: abandoned segments
        # play as concealed freezes, not as missing time.
        clean = self._deliver(n_frames=600)
        assert len(lossy.chunks) == len(clean.chunks)

    def test_panic_rung_engages(self):
        faults = FaultConfig(segment_loss=0.5, panic_after_failures=1,
                             seed=2)
        lossy = self._deliver(faults=faults, abr_fixed_rung=3)
        assert lossy.panic_fetches > 0

    def test_timeout_faults_counted(self):
        faults = FaultConfig(segment_timeout_rate=0.4, seed=6)
        result = self._deliver(faults=faults, n_frames=900)
        assert result.timeouts > 0


class TestPipelineFaults:
    def test_zero_rates_bit_identical_to_clean(self):
        clean = simulate(workload("V8"), GAB, n_frames=24, seed=5)
        cfg = replace(SimulationConfig(), faults=FaultConfig())
        zeroed = simulate(workload("V8"), GAB, n_frames=24, seed=5,
                          config=cfg)
        assert zeroed.energy.total == clean.energy.total
        assert (zeroed.timeline.finish == clean.timeline.finish).all()
        assert zeroed.write_bytes == clean.write_bytes
        assert zeroed.concealed_blocks == 0
        assert zeroed.fallback_writes == 0

    def test_bit_errors_concealed_deterministically(self):
        # (frames, seed, fault seed, rates); the last two are the V8/GAB
        # bit-error sweep at seed 7 and its 48-frame smoke.  The rerun
        # proves determinism once, on the first case.
        for n_frames, seed, fault_seed, rates in (
                (24, 5, 8, (0.0, 2e-5)),
                (96, 7, 7, (0.0, 1e-6, 1e-5)),
                (48, 7, 7, (0.0, 1e-6, 1e-5))):
            runs = [_faulted_v8(n_frames, seed, fault_seed,
                                block_bit_error=rate) for rate in rates]
            concealed = [run.concealed_blocks for run in runs]
            assert concealed[0] == 0, "BER 0 must conceal nothing"
            assert concealed == sorted(concealed), (
                "concealment grows with BER")
            assert concealed[-1] > 0
            clean, worst = runs[0].energy.total, runs[-1].energy.total
            assert abs(worst - clean) / clean < 0.05, (
                "concealment must not blow up the energy budget")
            if n_frames == 24:
                again = _faulted_v8(n_frames, seed, fault_seed,
                                    block_bit_error=rates[-1])
                assert again.concealed_blocks == concealed[-1]
                assert again.energy.total == worst

    def test_collisions_always_fall_back(self):
        # (frames, seed, fault seed, rates); the last two are the V8/GAB
        # digest-collision sweep at seed 7 and its 48-frame smoke.
        for n_frames, seed, fault_seed, rates in (
                (24, 5, 8, (0.0, 2e-3)),
                (96, 7, 7, (0.0, 1e-4, 1e-3)),
                (48, 7, 7, (0.0, 1e-4, 1e-3))):
            runs = [_faulted_v8(n_frames, seed, fault_seed,
                                digest_collision=rate) for rate in rates]
            for run in runs:
                assert run.fallback_writes == run.injected_collisions
                # No injected collision slips through as
                # silently-wrong content.
                assert run.silent_collisions == runs[0].silent_collisions
            assert runs[-1].injected_collisions > 0
            assert runs[-1].write_bytes >= runs[0].write_bytes, (
                "fallbacks store full blocks")

    def test_fault_drill_conceals_a_bounded_fraction(self):
        """V8/GAB at 96 frames and seed 7 under bit errors and digest
        collisions: some blocks, but under 5 %, are concealed, and no
        injected collision reaches the screen as a wrong MACH block."""
        rates = dict(block_bit_error=2e-5, digest_collision=1e-3)
        clean = _faulted_v8(96, 7, 0)
        run = _faulted_v8(96, 7, 0, **rates)
        blocks = run.n_frames * SimulationConfig().video.blocks_per_frame
        assert 0 < run.concealed_blocks / blocks < 0.05
        assert run.injected_collisions > 0
        assert run.fallback_writes == run.injected_collisions
        assert run.silent_collisions == clean.silent_collisions

    def test_unverified_collisions_go_silent(self):
        cfg = replace(SimulationConfig(),
                      faults=FaultConfig(digest_collision=2e-3, seed=8,
                                         verify_digests=False))
        clean = simulate(workload("V8"), GAB, n_frames=24, seed=5)
        run = simulate(workload("V8"), GAB, n_frames=24, seed=5,
                       config=cfg)
        assert run.fallback_writes == 0
        assert (run.silent_collisions
                == clean.silent_collisions + run.injected_collisions)

    def test_faults_work_without_mach(self):
        cfg = replace(SimulationConfig(),
                      faults=FaultConfig(block_bit_error=2e-5,
                                         digest_collision=1e-3, seed=8))
        run = simulate(workload("V8"), RACE_TO_SLEEP, n_frames=24,
                       seed=5, config=cfg)
        assert run.concealed_blocks > 0
        assert run.injected_collisions == 0  # no MACH, no collisions


class TestDecoderConcealment:
    def _encoded_frames(self, rng, n=3):
        encoder = Encoder(quality=70, gop_length=8)
        frames = []
        for _ in range(n):
            image = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
            frames.append(encoder.encode_frame(image).data)
        return frames

    def test_strict_decoder_still_raises(self):
        rng = np.random.default_rng(0)
        first, second, _ = self._encoded_frames(rng)
        decoder = Decoder()
        decoder.decode_frame(first)
        truncated = second[:len(second) // 2]  # bitstream exhausts
        with pytest.raises((CodecError, ValueError)):
            decoder.decode_frame(truncated)

    def test_concealing_decoder_absorbs_corruption(self):
        rng = np.random.default_rng(0)
        first, second, third = self._encoded_frames(rng)
        decoder = Decoder(conceal_errors=True)
        reference = decoder.decode_frame(first).copy()
        image = decoder.decode_frame(second[:len(second) // 2])
        assert image.shape == reference.shape
        assert decoder.concealed_macroblocks > 0
        assert decoder.concealed_frames == 1
        # The stream recovers: the next clean frame decodes normally.
        after = decoder.decode_frame(third)
        assert after.shape == reference.shape

    def test_concealment_off_by_default_matches_old_behavior(self):
        rng = np.random.default_rng(1)
        frames = self._encoded_frames(rng)
        strict, concealing = Decoder(), Decoder(conceal_errors=True)
        for data in frames:
            assert (strict.decode_frame(data)
                    == concealing.decode_frame(data)).all()
        assert concealing.concealed_macroblocks == 0

    def test_p_frame_before_i_concealed_gray(self):
        rng = np.random.default_rng(2)
        encoder = Encoder(quality=70, gop_length=8)
        encoder.encode_frame(
            rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        p_frame = encoder.encode_frame(
            rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        decoder = Decoder(conceal_errors=True)
        image = decoder.decode_frame(p_frame.data)
        assert decoder.concealed_frames == 1
        assert image.shape == (64, 64)
