"""Tests for the Sec. 6.4 extension pipelines and the Sec. 7
related-work baseline."""

from __future__ import annotations

import pytest

from repro.config import (
    DecoderConfig,
    SimulationConfig,
)
from repro.core.pipelines import (
    ProducerConsumerPipeline,
    RecordingPipeline,
    RenderPipeline,
)
from repro.core.related_work import (
    SlackPredictor,
    power_at_frequency,
    simulate_slack_dvfs,
)
from repro.errors import ConfigError
from repro.video import SyntheticVideo, workload


@pytest.fixture
def tiny_cfg(video_config):
    return SimulationConfig(video=video_config)


@pytest.fixture
def frames(tiny_cfg):
    return list(SyntheticVideo(tiny_cfg.video, workload("V8"), seed=4,
                               n_frames=12))


class TestExtensionPipelines:
    def test_render_pipeline_saves_traffic(self, tiny_cfg, frames):
        report = RenderPipeline(tiny_cfg).run(iter(frames))
        assert report.frames == 12
        assert report.write_savings > 0.05
        assert report.total_savings > 0.0

    def test_recording_reads_more_than_rendering(self, tiny_cfg, frames):
        recording = RecordingPipeline(tiny_cfg).run(iter(frames))
        rendering = RenderPipeline(tiny_cfg).run(iter(frames))
        assert recording.raw_read_lines > rendering.raw_read_lines
        assert recording.mach_read_lines > rendering.mach_read_lines

    def test_raw_accounting(self, tiny_cfg, frames):
        report = RenderPipeline(tiny_cfg).run(iter(frames))
        assert report.raw_write_bytes == 12 * tiny_cfg.video.frame_bytes
        lines = -(-tiny_cfg.video.frame_bytes // 64)
        assert report.raw_read_lines == 12 * lines

    def test_consumer_must_read(self, tiny_cfg):
        for reads in (0, -1):
            with pytest.raises(ConfigError):
                ProducerConsumerPipeline(tiny_cfg,
                                         consumer_reads_per_frame=reads)

    def test_empty_stream(self, tiny_cfg):
        report = RenderPipeline(tiny_cfg).run(iter([]))
        assert report.frames == 0
        assert report.total_savings == 0.0


class TestPowerCurve:
    def test_hits_measured_points(self):
        config = DecoderConfig()
        assert power_at_frequency(config, config.low_freq) == pytest.approx(
            config.low_freq_power)
        assert power_at_frequency(config, config.high_freq) == pytest.approx(
            config.high_freq_power)

    def test_monotonic(self):
        config = DecoderConfig()
        powers = [power_at_frequency(config, f * 1e6)
                  for f in (100, 150, 200, 250, 300)]
        assert powers == sorted(powers)


class TestSlackPredictor:
    def test_no_history_no_prediction(self):
        assert SlackPredictor().predict() is None

    def test_windowed_max(self):
        predictor = SlackPredictor(window=2, margin=1.0)
        predictor.observe(10.0)
        predictor.observe(20.0)
        predictor.observe(5.0)  # 10.0 falls out of the window
        assert predictor.predict() == pytest.approx(20.0)

    def test_margin_applied(self):
        predictor = SlackPredictor(window=4, margin=1.5)
        predictor.observe(10.0)
        assert predictor.predict() == pytest.approx(15.0)


class TestSlackDvfs:
    def test_deterministic(self):
        a = simulate_slack_dvfs(workload("V6"), 48, seed=3)
        b = simulate_slack_dvfs(workload("V6"), 48, seed=3)
        assert a.vd_energy == b.vd_energy
        assert a.drops == b.drops

    def test_scales_down_on_easy_content(self):
        result = simulate_slack_dvfs(workload("V1"), 64, seed=3)
        config = DecoderConfig()
        assert result.mean_frequency < config.high_freq

    def test_drops_on_complexity_spikes(self):
        # Scene-cut-heavy content defeats the history predictor.
        drops = sum(simulate_slack_dvfs(workload(k), 96, seed=7).drops
                    for k in ("V1", "V6", "V8"))
        assert drops > 0

    def test_high_floor_prevents_scaling(self):
        config = DecoderConfig()
        pinned = simulate_slack_dvfs(workload("V1"), 48, seed=3,
                                     min_frequency=config.high_freq)
        assert pinned.mean_frequency == pytest.approx(config.high_freq)

    def test_energy_positive_and_bounded(self):
        result = simulate_slack_dvfs(workload("V8"), 48, seed=3)
        assert 0 < result.vd_energy < 1.0  # under a joule for 48 frames
