"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import functools
from typing import Any
from unittest import mock

import numpy as np
import pytest

from repro.config import SimulationConfig, VideoConfig
from repro.core import pipeline
from repro.core.writeback import WritebackEngine
from repro.video import SyntheticVideo, workload


class ScalarWritebackEngine(WritebackEngine):
    """The write engine with the batched kernel off: every frame takes
    the scalar per-block walk, the reference the kernel must match."""

    def _process_mach(self, frame: Any, slot_base: int) -> Any:
        tags, aux, dcc_sizes = self._content_features(frame.blocks)
        return self._process_mach_scalar(frame, slot_base, tags, aux,
                                         dcc_sizes)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def video_config() -> VideoConfig:
    """A tiny, fast geometry used across unit tests."""
    return VideoConfig(width=64, height=32, gop_length=10,
                       b_frames_per_gop=3)


@pytest.fixture
def sim_config(video_config: VideoConfig) -> SimulationConfig:
    return SimulationConfig(video=video_config)


@pytest.fixture
def short_stream(video_config: VideoConfig):
    """A 30-frame V8 stream at the tiny test geometry."""
    return list(SyntheticVideo(video_config, workload("V8"), seed=3,
                               n_frames=30))


@pytest.fixture
def random_blocks(rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 256, size=(200, 48), dtype=np.uint8)


@pytest.fixture(scope="session")
def scalar_write_path():
    """The run-level scalar oracle, as a context-manager factory.

    ``with scalar_write_path(): simulate(...)`` builds the pipeline's
    write engine on the scalar walk; outside the block ``simulate``
    picks its write path as in production.  Session-scoped so that
    Hypothesis tests can take it.
    """
    return functools.partial(mock.patch.object, pipeline, "WritebackEngine",
                             ScalarWritebackEngine)
