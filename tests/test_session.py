"""Tests for the viewing-session layer."""

from __future__ import annotations

import pytest

from repro.config import BASELINE, GAB, NetworkConfig, SimulationConfig
from repro.core.session import (
    Pause,
    Play,
    SessionSimulator,
    simulate_session,
)
from repro.errors import ConfigError
from repro.video import workload


FRAMES = 24


class TestSessionComposition:
    def test_single_segment(self):
        result = simulate_session([Play(workload("V8"), FRAMES)], BASELINE,
                                  seed=1)
        assert len(result.segments) == 1
        assert result.playback_energy > 0
        assert result.playback_seconds > 0
        # Cold start always rebuffers once.
        assert result.stall_seconds > 0

    def test_pause_adds_time_and_energy(self):
        quiet = simulate_session([Play(workload("V8"), FRAMES)], BASELINE,
                                 seed=1)
        paused = simulate_session(
            [Play(workload("V8"), FRAMES), Pause(10.0)], BASELINE, seed=1)
        assert paused.pause_seconds == pytest.approx(10.0)
        assert paused.total_energy > quiet.total_energy
        assert paused.playback_energy == pytest.approx(
            quiet.playback_energy)

    def test_pause_is_cheaper_than_playback(self):
        result = simulate_session(
            [Play(workload("V8"), FRAMES), Pause(5.0)], BASELINE, seed=1)
        playback_power = result.playback_energy / result.playback_seconds
        pause_power = result.pause_energy / result.pause_seconds
        assert pause_power < playback_power

    def test_seek_rebuffers(self):
        plain = simulate_session(
            [Play(workload("V8"), FRAMES), Play(workload("V1"), FRAMES)],
            BASELINE, seed=1)
        seeking = simulate_session(
            [Play(workload("V8"), FRAMES),
             Play(workload("V1"), FRAMES, seek=True)],
            BASELINE, seed=1)
        assert seeking.stall_seconds > plain.stall_seconds
        assert seeking.rebuffer_energy > plain.rebuffer_energy

    def test_rebuffer_time_tracks_preroll(self):
        fast = SimulationConfig(network=NetworkConfig(preroll_frames=27,
                                                      chunk_interval=0.45))
        slow = SimulationConfig(network=NetworkConfig(preroll_frames=270,
                                                      chunk_interval=0.45))
        a = SessionSimulator(BASELINE, fast)._rebuffer_seconds()
        b = SessionSimulator(BASELINE, slow)._rebuffer_seconds()
        assert b > a

    def test_drops_aggregate(self):
        result = simulate_session(
            [Play(workload("V3"), 48), Play(workload("V3"), 48)],
            BASELINE, seed=3)
        assert result.drops == sum(r.drops for r in result.segments)

    def test_unknown_event_rejected(self):
        with pytest.raises(TypeError):
            simulate_session(["not-an-event"], BASELINE)

    def test_gab_session_beats_baseline(self):
        events = [Play(workload("V8"), FRAMES), Pause(2.0),
                  Play(workload("V14"), FRAMES, seek=True)]
        base = simulate_session(events, BASELINE, seed=2)
        gab = simulate_session(events, GAB, seed=2)
        assert gab.playback_energy < base.playback_energy
        # Idle states are scheme-independent.
        assert gab.pause_energy == pytest.approx(base.pause_energy)

    def test_average_power(self):
        result = simulate_session([Play(workload("V8"), FRAMES)], BASELINE,
                                  seed=1)
        assert 0.1 < result.average_power < 10.0  # sane watts

    def test_psr_flag_passthrough(self):
        events = [Play(workload("V8"), FRAMES), Pause(5.0)]
        plain = simulate_session(events, BASELINE, seed=1)
        psr = simulate_session(events, BASELINE, seed=1,
                               panel_self_refresh=True)
        assert psr.pause_energy < plain.pause_energy


class TestSessionEdgeCases:
    def test_zero_length_play_is_noop(self):
        result = simulate_session([Play(workload("V8"), 0)], BASELINE,
                                  seed=1)
        assert result.segments == []
        assert result.total_energy == 0.0
        assert result.stall_seconds == 0.0
        # A zero-length Play does not consume the cold-start rebuffer:
        # the next real Play still pays it.
        with_noop = simulate_session(
            [Play(workload("V8"), 0), Play(workload("V8"), FRAMES)],
            BASELINE, seed=1)
        plain = simulate_session([Play(workload("V8"), FRAMES)], BASELINE,
                                 seed=1)
        assert with_noop.stall_seconds == pytest.approx(plain.stall_seconds)

    def test_back_to_back_seeks_stack_stalls(self):
        single = simulate_session(
            [Play(workload("V8"), FRAMES)], BASELINE, seed=1)
        double = simulate_session(
            [Play(workload("V8"), FRAMES),
             Play(workload("V8"), FRAMES, seek=True),
             Play(workload("V8"), FRAMES, seek=True)],
            BASELINE, seed=1)
        # Cold start + two seeks = three full rebuffers.
        assert double.stall_seconds == pytest.approx(
            3 * single.stall_seconds)
        assert double.rebuffer_energy == pytest.approx(
            3 * single.rebuffer_energy)

    def test_pause_only_session(self):
        result = simulate_session([Pause(4.0), Pause(6.0)], BASELINE,
                                  seed=1)
        assert result.segments == []
        assert result.pause_seconds == pytest.approx(10.0)
        assert result.stall_seconds == 0.0
        assert result.playback_energy == 0.0
        assert result.total_energy == pytest.approx(result.pause_energy)
        assert result.average_power > 0

    @pytest.mark.parametrize("duration", [-1.0, float("nan"),
                                          float("inf")])
    def test_bad_pause_duration_rejected(self, duration):
        # A negative pause would price negative pause energy and lower
        # the session total.
        with pytest.raises(ConfigError):
            simulate_session([Play(workload("V8"), 8), Pause(duration)],
                             BASELINE, seed=1)

    def test_zero_pause_is_valid(self):
        result = simulate_session([Pause(0.0)], BASELINE, seed=1)
        assert result.pause_seconds == 0.0
        assert result.pause_energy == 0.0

    def test_psr_idle_power_ordering(self):
        config = SimulationConfig()
        plain = SessionSimulator(BASELINE, config)._frozen_frame_power()
        psr = SessionSimulator(BASELINE, config,
                               panel_self_refresh=True)._frozen_frame_power()
        assert psr < plain
        # PSR still pays the panel and the VD's deep-sleep floor.
        floor = (config.display.power
                 + config.decoder.power_states.s3_power)
        assert psr > floor

    def test_self_refresh_fraction_is_configurable(self):
        from dataclasses import replace

        from repro.config import DramConfig
        from repro.errors import ConfigError

        base = SimulationConfig()
        deep = SimulationConfig(
            dram=replace(base.dram, self_refresh_fraction=0.01))
        shallow = SimulationConfig(
            dram=replace(base.dram, self_refresh_fraction=0.9))
        powers = [
            SessionSimulator(BASELINE, cfg,
                             panel_self_refresh=True)._frozen_frame_power()
            for cfg in (deep, base, shallow)]
        assert powers[0] < powers[1] < powers[2]
        with pytest.raises(ConfigError):
            DramConfig(self_refresh_fraction=1.5)
