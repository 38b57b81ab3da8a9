"""Runs that read no pixel play a blank stream: the synthesiser makes
every draw whose values matter and skips each pixel byte draw.

The blank stream must carry the same frames as the rendered one (index,
type, complexity, encoded size and block shape) from the same generator
states, and ``simulate`` under Baseline, Batching, Racing and
Race-to-Sleep must give the same result with and without pixels.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import simulate
from repro.config import (
    BASELINE,
    BATCHING,
    DCC_ONLY,
    GAB,
    RACE_TO_SLEEP,
    RACING,
    FaultConfig,
    SimulationConfig,
    ThermalConfig,
    VideoConfig,
)
from repro.core import pipeline
from repro.video import SyntheticVideo, synthesis, workload, workload_keys

CONTENT_BLIND = (BASELINE, BATCHING, RACING, RACE_TO_SLEEP)


def _stream(video, profile, seed, n_frames, blank, monkeypatch):
    """Every frame of the stream, each with the live state of the
    synthesiser's generator right after it was made."""
    generators = []
    scene = synthesis._BlankSceneState if blank else synthesis._SceneState

    class Watched(scene):
        def __init__(self, rng, *args):
            super().__init__(rng, *args)
            generators.append(rng)

    monkeypatch.setattr(synthesis,
                        "_BlankSceneState" if blank else "_SceneState",
                        Watched)
    stream = SyntheticVideo(video, profile, seed=seed, n_frames=n_frames)
    if blank:
        stream = stream._without_pixels()
    out = []
    for frame in stream:
        state = generators[0].bit_generator.state
        out.append((frame, (state["state"], state["has_uint32"],
                            state["uinteger"] if state["has_uint32"]
                            else None)))
    return out


class TestBlankStream:
    @given(key=st.sampled_from(workload_keys()),
           scene_len=st.integers(1, 12), seed=st.integers(0, 2**16),
           cuts=st.integers(0, 2), extra=st.integers(0, 11))
    @example(key="V8", scene_len=90, seed=7, cuts=1, extra=3)
    @settings(max_examples=60, deadline=None)
    def test_same_frames_from_the_same_draws(self, key, scene_len, seed,
                                             cuts, extra):
        # A short scene puts cuts in a short stream; the frame count
        # runs past ``cuts`` of them.
        profile = dataclasses.replace(workload(key), scene_len=scene_len)
        n_frames = cuts * scene_len + 1 + extra
        video = SimulationConfig().video
        with pytest.MonkeyPatch.context() as patch:
            rendered = _stream(video, profile, seed, n_frames, False, patch)
        with pytest.MonkeyPatch.context() as patch:
            blank = _stream(video, profile, seed, n_frames, True, patch)
        assert len(blank) == len(rendered) == n_frames
        shape = (video.blocks_per_frame, video.block_bytes)
        for (frame, state), (want, want_state) in zip(blank, rendered):
            assert (frame.index, frame.frame_type, frame.complexity,
                    frame.encoded_bits) == (
                want.index, want.frame_type, want.complexity,
                want.encoded_bits)
            assert frame.blocks.shape == want.blocks.shape == shape
            assert state == want_state

    def test_blank_frames_are_one_read_only_zero_view(self):
        video = VideoConfig(width=64, height=32)
        stream = SyntheticVideo(video, workload("V3"), seed=1, n_frames=3)
        frames = list(stream._without_pixels())
        assert all(frame.blocks is frames[0].blocks for frame in frames)
        blocks = frames[0].blocks
        assert blocks.strides == (0, 0) and not blocks.flags.writeable
        assert not blocks.any()
        # The stream it came from still renders.
        assert any(frame.blocks.any() for frame in stream)


def test_only_content_caching_and_dcc_read_pixels():
    assert not any(pipeline._reads_pixels(s) for s in CONTENT_BLIND)
    assert pipeline._reads_pixels(GAB) and pipeline._reads_pixels(DCC_ONLY)


class TestBlankRuns:
    """``simulate`` under every content-blind scheme gives the same
    result from the blank stream as from rendered pixels."""

    @given(key=st.sampled_from(["V1", "V3", "V8", "V14"]),
           scheme=st.sampled_from(CONTENT_BLIND),
           batch_size=st.sampled_from([None, 1, 16]),
           thermal=st.booleans(), bit_errors=st.booleans(),
           overlay=st.booleans(), seed=st.integers(0, 99),
           n_frames=st.integers(1, 40))
    @example(key="V8", scheme=RACE_TO_SLEEP, batch_size=None, thermal=True,
             bit_errors=True, overlay=True, seed=7, n_frames=40)
    @settings(max_examples=40, deadline=None)
    def test_same_result_with_and_without_pixels(self, pixel_frames, key,
                                                 scheme, batch_size, thermal,
                                                 bit_errors, overlay, seed,
                                                 n_frames):
        config = SimulationConfig(video=VideoConfig(width=64, height=32))
        if thermal:
            config = dataclasses.replace(config, thermal=ThermalConfig(
                enabled=True, seed=seed, event_interval=0.2,
                cap_drop_rate=1.0, cap_drop_duty=0.5,
                delayed_transition_rate=0.5))
        if bit_errors:
            config = dataclasses.replace(config, faults=FaultConfig(
                block_bit_error=2e-3, seed=seed))
        if batch_size is not None:
            scheme = dataclasses.replace(scheme, batch_size=batch_size)
        # Blocks lost upstream of the decoder on every third frame.
        lost = ({index: np.arange(index % 5, 40, 7)
                 for index in range(0, n_frames, 3)} if overlay else None)

        def run():
            return simulate(workload(key), scheme, n_frames=n_frames,
                            config=config, seed=seed,
                            block_loss_overlay=lost).to_jsonable()

        blank = run()
        with pixel_frames():
            assert run() == blank
        if bit_errors or overlay:
            assert blank["concealed_blocks"] > 0

    def test_raw_dram_run(self, pixel_frames):
        """The benchmark's content-blind run: V8 Baseline at the
        default geometry."""
        blank = simulate(workload("V8"), BASELINE, n_frames=120, seed=7)
        with pixel_frames():
            rendered = simulate(workload("V8"), BASELINE, n_frames=120,
                                seed=7)
        assert blank.to_jsonable() == rendered.to_jsonable()
