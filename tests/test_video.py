"""Tests for the video substrate: blocks, GOP, synthesis, workloads."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import VideoConfig
from repro.errors import ConfigError, GeometryError
from repro.video import (
    PAPER_WORKLOADS,
    FrameType,
    SyntheticVideo,
    VideoProfile,
    block_bases,
    gop_frame_types,
    join_blocks,
    split_blocks,
    workload,
    workload_keys,
)
from repro.video.gop import gop_pattern


class TestBlockOps:
    def test_split_join_roundtrip(self, rng):
        image = rng.integers(0, 256, size=(32, 64, 3), dtype=np.uint8)
        blocks = split_blocks(image, 4)
        assert blocks.shape == (8 * 16, 48)
        assert (join_blocks(blocks, 64, 32, 4) == image).all()

    def test_raster_order(self):
        image = np.zeros((8, 8, 3), dtype=np.uint8)
        image[0:4, 4:8] = 7  # second block in raster order
        blocks = split_blocks(image, 4)
        assert (blocks[1] == 7).all()
        assert (blocks[0] == 0).all()

    def test_block_bases(self, rng):
        image = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        blocks = split_blocks(image, 4)
        bases = block_bases(blocks)
        assert (bases[0] == image[0, 0]).all()
        assert (bases[1] == image[0, 4]).all()

    def test_geometry_errors(self):
        with pytest.raises(GeometryError):
            split_blocks(np.zeros((10, 10, 3), dtype=np.uint8), 4)
        with pytest.raises(GeometryError):
            join_blocks(np.zeros((4, 48), dtype=np.uint8), 64, 32, 4)

    @given(st.integers(1, 4).map(lambda b: 4 * b))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_various_sizes(self, block):
        rng = np.random.default_rng(block)
        image = rng.integers(0, 256, size=(block * 2, block * 3, 3),
                             dtype=np.uint8)
        blocks = split_blocks(image, block)
        assert (join_blocks(blocks, block * 3, block * 2, block)
                == image).all()


class TestGop:
    def test_starts_with_i(self):
        assert gop_pattern(12, 8)[0] is FrameType.I

    def test_counts(self):
        pattern = gop_pattern(30, 8)
        assert len(pattern) == 30
        assert sum(t is FrameType.I for t in pattern) == 1
        assert sum(t is FrameType.B for t in pattern) == 8

    def test_repeats_over_stream(self):
        types = list(gop_frame_types(25, gop_length=10, b_frames=3))
        assert types[0] is FrameType.I
        assert types[10] is FrameType.I
        assert types[20] is FrameType.I

    def test_single_frame_gop(self):
        assert gop_pattern(1, 0) == [FrameType.I]

    def test_too_many_b_frames(self):
        with pytest.raises(ConfigError):
            gop_pattern(5, 5)


class TestVideoConfig:
    def test_derived_geometry(self):
        cfg = VideoConfig(width=192, height=108)
        assert cfg.blocks_per_frame == 48 * 27
        assert cfg.block_bytes == 48
        assert cfg.frame_bytes == 192 * 108 * 3
        assert cfg.frame_interval == pytest.approx(1 / 60)

    def test_scale_to_native(self):
        cfg = VideoConfig(width=192, height=108)
        assert cfg.scale_to_native == pytest.approx(400.0)

    def test_rejects_non_divisible(self):
        with pytest.raises(ConfigError):
            VideoConfig(width=190, height=108)


class TestSyntheticVideo:
    def test_deterministic(self, video_config):
        a = list(SyntheticVideo(video_config, workload("V5"), seed=9,
                                n_frames=10))
        b = list(SyntheticVideo(video_config, workload("V5"), seed=9,
                                n_frames=10))
        for frame_a, frame_b in zip(a, b):
            assert (frame_a.blocks == frame_b.blocks).all()
            assert frame_a.complexity == frame_b.complexity

    def test_seed_changes_content(self, video_config):
        a = next(iter(SyntheticVideo(video_config, workload("V5"), seed=1)))
        b = next(iter(SyntheticVideo(video_config, workload("V5"), seed=2)))
        assert (a.blocks != b.blocks).any()

    def test_frame_shape_and_metadata(self, short_stream, video_config):
        assert len(short_stream) == 30
        for frame in short_stream:
            assert frame.blocks.shape == (video_config.blocks_per_frame,
                                          video_config.block_bytes)
            assert frame.blocks.dtype == np.uint8
            assert frame.complexity > 0
            assert frame.encoded_bits > 0

    def test_gop_structure(self, short_stream, video_config):
        assert short_stream[0].frame_type is FrameType.I
        assert short_stream[video_config.gop_length].frame_type is FrameType.I

    def test_i_frames_cost_more_bits(self, short_stream):
        i_bits = [f.encoded_bits / f.complexity for f in short_stream
                  if f.frame_type is FrameType.I]
        p_bits = [f.encoded_bits / f.complexity for f in short_stream
                  if f.frame_type is FrameType.P]
        assert min(i_bits) > max(p_bits)

    def test_static_blocks_persist(self, video_config):
        """With zero churn and no noise class, frames are identical."""
        profile = VideoProfile(key="T", name="t", description="t",
                               n_frames=5, p_update=0.0, scene_len=100,
                               f_common=0.6, f_unique=0.4)
        frames = list(SyntheticVideo(video_config, profile, seed=4,
                                     n_frames=5))
        assert (frames[1].blocks == frames[2].blocks).all()

    def test_noise_blocks_churn(self, video_config):
        """An all-noise profile never repeats content across frames."""
        profile = VideoProfile(key="N", name="n", description="n",
                               n_frames=3, f_common=0.0, f_unique=0.0,
                               scene_len=100)
        frames = list(SyntheticVideo(video_config, profile, seed=4,
                                     n_frames=3))
        assert (frames[1].blocks != frames[2].blocks).any(axis=1).all()

    def test_scene_cut_replaces_pools(self, video_config):
        profile = VideoProfile(key="S", name="s", description="s",
                               n_frames=6, scene_len=3, p_update=0.0)
        frames = list(SyntheticVideo(video_config, profile, seed=4,
                                     n_frames=6))
        same = (frames[2].blocks == frames[3].blocks).all(axis=1).mean()
        assert same < 0.05  # the cut regenerates nearly everything


class TestVideoProfile:
    def test_fraction_validation(self):
        with pytest.raises(ConfigError):
            VideoProfile(key="X", name="x", description="x", n_frames=1,
                         f_common=0.8, f_unique=0.3)

    @pytest.mark.parametrize("field, value", [
        ("f_flat", 1.5), ("f_flat", -0.1), ("f_flat", float("nan")),
        ("p_offset", 1.7), ("p_offset", float("nan")),
        ("p_update", -0.2), ("p_update", float("nan")),
        ("zipf_s", float("inf")), ("zipf_s", float("nan")),
    ])
    def test_probability_knobs_validated(self, field, value):
        with pytest.raises(ConfigError, match=field):
            VideoProfile(key="X", name="x", description="x", n_frames=1,
                         **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("f_flat", 0.0), ("f_flat", 1.0), ("p_offset", 0.0),
        ("p_update", 1.0), ("zipf_s", 0.0),
    ])
    def test_probability_knob_bounds_accepted(self, field, value):
        profile = VideoProfile(key="X", name="x", description="x",
                               n_frames=1, **{field: value})
        frames = list(SyntheticVideo(VideoConfig(width=64, height=32),
                                     profile, n_frames=3))
        assert len(frames) == 3

    def test_undefined_texture_popularity_rejected(self):
        # One texture and no flat share: every weight is 0.
        profile = VideoProfile(key="X", name="x", description="x",
                               n_frames=1, common_pool=1, f_flat=0.0)
        with pytest.raises(ConfigError, match="popularity"):
            list(SyntheticVideo(VideoConfig(width=64, height=32), profile))

    def test_f_noise_derived(self):
        profile = VideoProfile(key="X", name="x", description="x",
                               n_frames=1, f_common=0.4, f_unique=0.1)
        assert profile.f_noise == pytest.approx(0.5)


class TestWorkloads:
    def test_sixteen_videos(self):
        assert len(PAPER_WORKLOADS) == 16
        assert workload_keys() == tuple(f"V{i}" for i in range(1, 17))

    def test_lookup_case_insensitive(self):
        assert workload("v8").name == "007 Skyfall"

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            workload("V17")

    def test_table1_frame_counts(self):
        # Spot-check against the paper's Table 1.
        assert workload("V1").n_frames == 6507
        assert workload("V12").n_frames == 10147
        assert workload("V13").n_frames == 1699
