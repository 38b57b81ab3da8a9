"""End-to-end pipeline integration tests.

These exercise the full simulate() flow at a small frame count and
assert the paper's qualitative behaviours hold on every run.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simulate, workload
from repro.config import (
    BASELINE,
    BATCHING,
    GAB,
    GAB_DCC,
    MAB,
    RACE_TO_SLEEP,
    RACING,
    FaultConfig,
    NetworkConfig,
    SimulationConfig,
    ThermalConfig,
    VideoConfig,
)
from repro.core.results import FrameTimeline, RunResult
from repro.decoder.power import PowerState
from repro.errors import ConfigError, ReproError
from repro.video import SyntheticVideo
from repro.video.trace import FrameTrace

FRAMES = 64


@pytest.fixture(scope="module")
def v8_runs():
    schemes = (BASELINE, BATCHING, RACING, RACE_TO_SLEEP, MAB, GAB)
    return {s.name: simulate(workload("V8"), s, n_frames=FRAMES, seed=5)
            for s in schemes}


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = simulate(workload("V5"), BASELINE, n_frames=24, seed=9)
        b = simulate(workload("V5"), BASELINE, n_frames=24, seed=9)
        assert a.energy.total == b.energy.total
        assert a.drops == b.drops
        assert (a.timeline.decode_time == b.timeline.decode_time).all()

    def test_different_seed_different_traffic(self):
        a = simulate(workload("V5"), BASELINE, n_frames=24, seed=1)
        b = simulate(workload("V5"), BASELINE, n_frames=24, seed=2)
        assert a.energy.total != b.energy.total


class TestEnergyAccounting:
    def test_breakdown_sums(self, v8_runs):
        for result in v8_runs.values():
            total = sum(result.energy.as_dict().values())
            assert total == pytest.approx(result.energy.total)
            assert result.energy.total > 0

    def test_residency_sums_to_one(self, v8_runs):
        for result in v8_runs.values():
            assert sum(result.residency.values()) == pytest.approx(1.0,
                                                                   abs=1e-6)

    def test_mach_overhead_only_for_mach_schemes(self, v8_runs):
        assert v8_runs["Baseline"].energy.mach_overhead == 0.0
        assert v8_runs["Race-to-Sleep"].energy.mach_overhead == 0.0
        assert v8_runs["MAB"].energy.mach_overhead > 0.0
        assert v8_runs["GAB"].energy.mach_overhead > 0.0

    def test_timeline_energy_matches_tracker(self, v8_runs):
        for result in v8_runs.values():
            timeline_total = result.timeline.total_energy.sum()
            tracker_total = (result.energy.vd_total)
            assert timeline_total == pytest.approx(tracker_total, rel=1e-6)


class TestPaperBehaviours:
    def test_rts_eliminates_drops(self, v8_runs):
        assert v8_runs["Race-to-Sleep"].drops == 0
        assert v8_runs["MAB"].drops == 0
        assert v8_runs["GAB"].drops == 0

    def test_rts_deep_sleep_dominates_baseline(self, v8_runs):
        assert (v8_runs["Race-to-Sleep"].residency[PowerState.S3]
                > 3 * v8_runs["Baseline"].residency[PowerState.S3])

    def test_batching_cuts_transitions(self, v8_runs):
        assert (v8_runs["Batching"].transitions
                < v8_runs["Baseline"].transitions / 4)

    def test_racing_halves_decode_time(self, v8_runs):
        base = v8_runs["Baseline"].timeline.decode_time.mean()
        race = v8_runs["Racing"].timeline.decode_time.mean()
        assert race == pytest.approx(base / 2, rel=0.01)

    def test_gab_saves_write_traffic(self, v8_runs):
        assert v8_runs["GAB"].write_savings > v8_runs["MAB"].write_savings
        assert v8_runs["GAB"].write_savings > 0.2

    def test_gab_saves_read_traffic(self, v8_runs):
        assert v8_runs["GAB"].read_savings > 0.15

    def test_gab_cheapest_overall(self, v8_runs):
        energies = {name: r.energy.total for name, r in v8_runs.items()}
        assert min(energies, key=energies.get) == "GAB"

    def test_racing_costs_energy_alone(self, v8_runs):
        assert (v8_runs["Racing"].energy.total
                > v8_runs["Baseline"].energy.total)

    def test_batching_needs_more_framebuffer(self, v8_runs):
        assert (v8_runs["Batching"].peak_footprint_native_mb
                > 2 * v8_runs["Baseline"].peak_footprint_native_mb)

    def test_mach_schemes_write_fewer_bytes(self, v8_runs):
        assert v8_runs["GAB"].write_bytes < v8_runs["Baseline"].write_bytes
        assert (v8_runs["Baseline"].write_bytes
                == v8_runs["Baseline"].raw_write_bytes)


class TestDisplaySemantics:
    def test_baseline_dropped_frames_marked(self):
        result = simulate(workload("V3"), BASELINE, n_frames=96, seed=11)
        assert result.drops == int(result.timeline.dropped.sum())

    def test_deadlines_are_one_refresh_after_slot(self):
        result = simulate(workload("V5"), BASELINE, n_frames=24, seed=0)
        interval = 1 / 60.0
        expected = (np.arange(24) + 1) * interval
        assert np.allclose(result.timeline.deadline, expected)

    def test_all_frames_decoded(self, v8_runs):
        for result in v8_runs.values():
            assert (result.timeline.decode_time > 0).all()
            assert (result.timeline.finish > 0).all()


class TestConfigurationVariants:
    def test_smaller_resolution_runs(self):
        cfg = SimulationConfig(video=VideoConfig(width=96, height=48))
        result = simulate(workload("V8"), GAB, n_frames=16, config=cfg,
                          seed=1)
        assert result.n_frames == 16
        assert result.energy.total > 0

    def test_unbounded_mach_beats_lru(self):
        lru = simulate(workload("V8"), GAB, n_frames=32, seed=2)
        oracle = simulate(workload("V8"), GAB, n_frames=32, seed=2,
                          unbounded_mach=True)
        assert oracle.write_savings >= lru.write_savings

    def test_ablations_cost_reads(self):
        full = simulate(workload("V8"), GAB, n_frames=32, seed=2)
        naive = simulate(workload("V8"), GAB, n_frames=32, seed=2,
                         use_display_cache=False, use_mach_buffer=False)
        assert naive.read_stats.mem_reads > full.read_stats.mem_reads

    def test_eager_buffer_policy_runs(self):
        result = simulate(workload("V8"), GAB, n_frames=24, seed=2,
                          buffer_policy="eager")
        assert result.read_stats.prefetch_reads > 0


_TINY_VIDEO = VideoConfig(width=64, height=32)
_TINY = SimulationConfig(video=_TINY_VIDEO)
#: The ``dcc_misses_throttled`` benchmark's injected thermal pressure.
_THROTTLED = SimulationConfig(video=_TINY_VIDEO, thermal=ThermalConfig(
    enabled=True, seed=7, event_interval=1.0, cap_drop_rate=1.0,
    cap_drop_duty=0.5, delayed_transition_rate=0.5))


def _source(kind):
    if kind == "profile":
        return workload("V8")
    frames = list(SyntheticVideo(_TINY_VIDEO, workload("V8"), seed=3,
                                 n_frames=4))
    if kind == "frames":
        return frames
    return FrameTrace.from_frames(frames, _TINY_VIDEO.width,
                                  _TINY_VIDEO.height)


class TestFrameCounts:
    @pytest.mark.parametrize("n_frames", [0, -2])
    @pytest.mark.parametrize("kind", ["profile", "frames", "trace"])
    def test_no_frame_to_play_is_a_config_error(self, kind, n_frames):
        with pytest.raises(ConfigError, match="at least one frame"):
            simulate(_source(kind), GAB, n_frames=n_frames, config=_TINY)

    def test_empty_frame_list_is_a_config_error(self):
        with pytest.raises(ConfigError, match="at least one frame"):
            simulate([], GAB, config=_TINY)


def _materialized(video, n_frames, seed):
    """The frames a profile run of ``video`` plays, as a frame list."""
    cfg = SimulationConfig()
    return SyntheticVideo(
        cfg.video, workload(video), seed=seed, n_frames=n_frames,
        complexity_sigma=cfg.calibration.complexity_sigma).materialize()


@pytest.fixture(scope="module")
def shared_frames():
    return {video: _materialized(video, 32, seed=4)
            for video in ("V3", "V8")}


class TestFrameListSource:
    """A materialized stream plays exactly like its profile, as often
    as it is played."""

    @pytest.mark.parametrize("video", ["V3", "V8"])
    @pytest.mark.parametrize("scheme, options", [
        (BASELINE, {}), (RACE_TO_SLEEP, {}), (GAB, {}), (MAB, {}),
        (GAB_DCC, {}), (GAB, {"unbounded_mach": True}),
        (GAB, {"use_display_cache": False}),
    ], ids=["BASELINE", "RACE_TO_SLEEP", "GAB", "MAB", "GAB_DCC",
            "GAB-unbounded", "GAB-no-dc"])
    def test_frame_list_equals_profile(self, shared_frames, video,
                                       scheme, options):
        frames = shared_frames[video]
        from_list = simulate(frames, scheme, seed=4, **options)
        from_profile = simulate(workload(video), scheme, n_frames=32,
                                seed=4, **options)
        assert from_list.profile_key == video
        assert from_list.to_jsonable() == from_profile.to_jsonable()

    def test_concealment_leaves_the_callers_frames_intact(self):
        frames = _materialized("V8", 48, seed=7)
        faulted = simulate(frames, GAB, seed=7, config=SimulationConfig(
            faults=FaultConfig(block_bit_error=1e-5)))
        assert faulted.concealed_blocks > 0
        again = simulate(frames, GAB, seed=7)
        clean = simulate(workload("V8"), GAB, n_frames=48, seed=7)
        assert again.to_jsonable() == clean.to_jsonable()

    @pytest.mark.parametrize("scheme", [BASELINE, GAB],
                             ids=lambda scheme: scheme.name)
    def test_mismatched_geometry_is_a_config_error(self, scheme):
        wide = VideoConfig(width=2 * _TINY_VIDEO.width,
                           height=_TINY_VIDEO.height)
        frames = list(SyntheticVideo(wide, workload("V8"), seed=3,
                                     n_frames=4))
        with pytest.raises(ConfigError, match="video config expects"):
            simulate(frames, scheme, config=_TINY)
        # A trace carries its own geometry, which overrides the config.
        trace = FrameTrace.from_frames(frames, wide.width, wide.height)
        assert simulate(trace, scheme, config=_TINY).n_frames == 4


#: The same thermal pressure at the default video geometry.
_PERF_THROTTLED = dataclasses.replace(_THROTTLED,
                                      video=SimulationConfig().video)


class TestBatchEdges:
    """Runs one frame short of, at, and past a 16-frame batch."""

    @pytest.mark.parametrize("throttled", [False, True],
                             ids=["cool", "throttled"])
    @pytest.mark.parametrize("scheme", [BASELINE, RACING, GAB, GAB_DCC],
                             ids=lambda scheme: scheme.name)
    @pytest.mark.parametrize("n_frames", [1, 15, 17])
    def test_every_step_covers_every_frame(self, n_frames, scheme,
                                           throttled):
        cfg = _THROTTLED if throttled else _TINY
        result = simulate(workload("V8"), scheme, n_frames=n_frames,
                          config=cfg, seed=7)
        assert result.n_frames == n_frames
        for field in dataclasses.fields(FrameTimeline):
            assert len(getattr(result.timeline, field.name)) == n_frames
        assert 0 <= result.drops <= n_frames
        assert sum(result.residency.values()) == pytest.approx(1.0)
        assert np.isfinite(result.energy.total)
        assert result.energy.total > 0


class TestEdgeSweep:
    """``simulate`` at the edges of its inputs gives a valid result or a
    typed error, and the same one when each run's DRAM traffic is
    replayed in one call instead of window by window, when every
    chunk's arrival times are drawn as it is logged, or when every
    frame's pixels are rendered."""

    @given(n_frames=st.sampled_from([1, 2, 7]),
           batch_size=st.sampled_from([1, 16, 64]),
           geometry=st.sampled_from([(64, 32), (4, 64), (8, 8)]),
           no_quantum=st.booleans(), revoked=st.booleans(),
           scheme=st.sampled_from([BASELINE, GAB, GAB_DCC]),
           window=st.sampled_from([16, 256]))
    @settings(max_examples=40, deadline=None)
    def test_valid_result_or_typed_error(self, whole_run_replay,
                                         eager_traffic_times, pixel_frames,
                                         n_frames, batch_size, geometry,
                                         no_quantum, revoked, scheme,
                                         window):
        from unittest import mock

        from repro.core import pipeline

        width, height = geometry
        config = SimulationConfig(video=VideoConfig(width=width,
                                                    height=height))
        if no_quantum:
            config = dataclasses.replace(config, dram=dataclasses.replace(
                config.dram, scheduler_quantum=0.0))
        if revoked:
            # Boost revoked for the whole of every event slot.
            config = dataclasses.replace(config, thermal=ThermalConfig(
                enabled=True, seed=7, event_interval=1.0,
                cap_drop_rate=1.0, cap_drop_duty=1.0))
        scheme = dataclasses.replace(scheme, batch_size=batch_size)

        def run():
            try:
                return simulate(workload("V8"), scheme, n_frames=n_frames,
                                config=config, seed=7)
            except ReproError as error:
                return error

        with mock.patch.object(pipeline, "_REPLAY_WINDOW", window):
            windowed = run()
        with whole_run_replay():
            whole = run()
        with eager_traffic_times():
            eager = run()
        with pixel_frames():
            pixels = run()
        if isinstance(windowed, ReproError):
            for oracle in (whole, eager, pixels):
                assert type(oracle) is type(windowed)
                assert str(oracle) == str(windowed)
            return
        assert isinstance(windowed, RunResult)
        assert windowed.n_frames == n_frames
        assert 0 <= windowed.drops <= n_frames
        assert sum(windowed.residency.values()) == pytest.approx(1.0)
        assert np.isfinite(windowed.energy.total)
        assert windowed.energy.total > 0
        assert windowed.mem_stats.bursts > 0
        if revoked:
            assert windowed.throttle_seconds > 0
        assert windowed.to_jsonable() == whole.to_jsonable()
        assert windowed.to_jsonable() == eager.to_jsonable()
        assert windowed.to_jsonable() == pixels.to_jsonable()


class TestRunMemory:
    """A run holds the write results the display may still scan out,
    not the whole session's."""

    @staticmethod
    def _watch(monkeypatch):
        """Record ``len(completed)`` after every decode and vsync step,
        the results held that no scan-out can read (a frame the cursor
        has passed, other than ``last_shown``), each frame's written
        and raw bytes, and the frames decoded after their vsync."""
        from repro.core import pipeline
        from repro.core.writeback import WritebackEngine

        seen = {"live": [], "passed": 0, "written": [], "late": 0}
        decode = pipeline._Playback.decode
        show_until = pipeline._Playback.show_until
        process_frame = WritebackEngine.process_frame

        def held(play):
            seen["live"].append(len(play.completed))
            seen["passed"] += sum(k < play.cursor and k != play.last_shown
                                  for k in play.completed)

        def decoded(self, frame):
            seen["late"] += frame.index < self.cursor
            decode(self, frame)
            held(self)

        def shown(self, upto):
            show_until(self, upto)
            held(self)

        def recorded(self, *args):
            result = process_frame(self, *args)
            seen["written"].append(
                (result.bytes_written, result.layout.raw_bytes))
            return result

        monkeypatch.setattr(pipeline._Playback, "decode", decoded)
        monkeypatch.setattr(pipeline._Playback, "show_until", shown)
        monkeypatch.setattr(WritebackEngine, "process_frame", recorded)
        return seen

    @staticmethod
    def _check_totals(result, seen):
        assert seen["passed"] == 0
        assert result.write_bytes == sum(w for w, _ in seen["written"])
        assert result.raw_write_bytes == sum(r for _, r in seen["written"])

    @pytest.mark.parametrize("thermal", [False, True],
                             ids=["cool", "throttled"])
    @pytest.mark.parametrize("scheme", [BASELINE, RACE_TO_SLEEP, GAB,
                                        GAB_DCC],
                             ids=lambda scheme: scheme.name)
    def test_live_results_stay_within_a_batch(self, monkeypatch, scheme,
                                              thermal):
        cfg = _PERF_THROTTLED if thermal else SimulationConfig()
        seen = self._watch(monkeypatch)
        result = simulate(workload("V8"), scheme, n_frames=48, config=cfg,
                          seed=7)
        assert len(seen["written"]) == 48
        assert 1 <= max(seen["live"]) <= scheme.batch_size + 1
        self._check_totals(result, seen)

    @pytest.mark.parametrize("scheme", [BASELINE, GAB],
                             ids=lambda scheme: scheme.name)
    def test_dropped_and_late_frames_are_retired(self, monkeypatch, scheme):
        # A 4-frame pre-roll stalls playback on the network: most frames
        # arrive, and are decoded, after their vsync has passed.
        cfg = SimulationConfig(network=NetworkConfig(preroll_frames=4))
        seen = self._watch(monkeypatch)
        result = simulate(workload("V3"), scheme, n_frames=60, config=cfg,
                          seed=7)
        assert result.drops > 0 and seen["late"] > 0
        assert max(seen["live"]) <= scheme.batch_size + 1
        self._check_totals(result, seen)
