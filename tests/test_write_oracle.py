"""The write kernel against the per-block walk, whole runs at a time.

``simulate`` writes every frame through
:meth:`~repro.core.writeback.WritebackEngine._process_mach`: one sort of
a clean frame's tags, or :func:`repro.core.collisions.\
classify_collisions` for a frame that holds a collision.  Under the
``scalar_write_path`` fixture it walks every frame block by block
(:mod:`tests.mach_oracle`).  Hypothesis draws tiny runs across the MACH
schemes, CO-MACH, digest verification, injected collision rates, both
MACH-buffer policies and thermal throttling, on synthesised content and
on scripted tag/aux streams that make CRC32 tags meet other CRC16 auxes
within a frame, against the ring and in the CO-MACH; both sides must
give the same ``RunResult`` to the last bit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import simulate
from repro.config import (
    GAB,
    GAB_DCC,
    MAB,
    FaultConfig,
    SimulationConfig,
    ThermalConfig,
    VideoConfig,
)
from repro.core.writeback import ContentFeatures, WritebackEngine
from repro.video import workload

_TINY = SimulationConfig(video=VideoConfig(width=32, height=16))
_SCHEMES = {"MAB": MAB, "GAB": GAB, "GAB+DCC": GAB_DCC}
_THERMAL = ThermalConfig(enabled=True, seed=7, event_interval=0.05,
                         cap_drop_rate=1.0, cap_drop_duty=0.5)


def _config(co_mach: bool, verify: bool, rate: float,
            thermal: bool) -> SimulationConfig:
    config = replace(_TINY, mach=replace(_TINY.mach, co_mach=co_mach))
    if rate or not verify:
        config = replace(config, faults=FaultConfig(
            digest_collision=rate, verify_digests=verify, seed=3))
    if thermal:
        config = replace(config, thermal=_THERMAL)
    return config


def _scripted(sets: int, keys: int, flip: float, seed: int) -> Any:
    """A ``_content_features`` that plays a seeded tag/aux stream.

    Tags fall in ``sets`` MACH sets, ``keys`` of them per set, so the
    sets overflow and the ring repeats tags; each tag has a home CRC16
    aux and a block shows the other one with probability ``flip``.
    """

    def features(engine: WritebackEngine, blocks: np.ndarray) -> Any:
        frame = getattr(engine, "_scripted_frame", 0)
        engine._scripted_frame = frame + 1
        rng = np.random.default_rng((seed, frame))
        n = len(blocks)
        tags = (rng.integers(0, sets, n)
                + 8 * rng.integers(0, keys, n)).astype(np.int64)
        aux = (tags % 3) ^ (rng.random(n) < flip).astype(np.int64)
        sizes = (8 + tags % 40) if engine.scheme.dcc else None
        return ContentFeatures(tags, aux, sizes)

    return features


def _assert_same_run(scalar_write_path, scheme_name: str, config:
                     SimulationConfig, **kwargs: Any) -> None:
    kwargs.update(n_frames=kwargs.get("n_frames", 12), config=config)
    fast = simulate(workload("V8"), _SCHEMES[scheme_name], **kwargs)
    with scalar_write_path():
        slow = simulate(workload("V8"), _SCHEMES[scheme_name], **kwargs)
    assert fast.to_jsonable() == slow.to_jsonable()


_runs = dict(
    scheme_name=st.sampled_from(sorted(_SCHEMES)),
    unbounded=st.booleans(),
    co_mach=st.booleans(),
    verify=st.booleans(),
    rate=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    buffer_policy=st.sampled_from(["lazy", "eager"]),
    thermal=st.booleans(),
    n_frames=st.integers(1, 12),
)


class TestRunLevelOracle:
    @given(seed=st.integers(0, 3), **_runs)
    @settings(max_examples=40, deadline=None)
    @example(seed=0, scheme_name="GAB", unbounded=False, co_mach=True,
             verify=True, rate=0.3, buffer_policy="lazy", thermal=False,
             n_frames=12)
    @example(seed=1, scheme_name="GAB+DCC", unbounded=True, co_mach=False,
             verify=False, rate=0.3, buffer_policy="eager", thermal=True,
             n_frames=12)
    def test_synthesised_runs(self, scalar_write_path, seed, scheme_name,
                              unbounded, co_mach, verify, rate,
                              buffer_policy, thermal, n_frames):
        _assert_same_run(
            scalar_write_path, scheme_name,
            _config(co_mach, verify, rate, thermal), seed=seed,
            unbounded_mach=unbounded, buffer_policy=buffer_policy,
            n_frames=n_frames)

    @given(sets=st.integers(1, 3), keys=st.integers(1, 12),
           flip=st.sampled_from([0.0, 0.1, 0.5]),
           stream=st.integers(0, 2**16), **_runs)
    @settings(max_examples=60, deadline=None)
    @example(sets=1, keys=6, flip=0.5, stream=1, scheme_name="MAB",
             unbounded=False, co_mach=True, verify=True, rate=0.0,
             buffer_policy="lazy", thermal=False, n_frames=12)
    @example(sets=2, keys=3, flip=0.1, stream=2, scheme_name="GAB",
             unbounded=False, co_mach=True, verify=True, rate=0.3,
             buffer_policy="eager", thermal=False, n_frames=12)
    @example(sets=1, keys=12, flip=0.1, stream=3, scheme_name="GAB+DCC",
             unbounded=True, co_mach=True, verify=False, rate=0.05,
             buffer_policy="lazy", thermal=True, n_frames=12)
    @example(sets=3, keys=4, flip=0.5, stream=4, scheme_name="GAB",
             unbounded=False, co_mach=False, verify=True, rate=0.05,
             buffer_policy="lazy", thermal=False, n_frames=12)
    def test_scripted_collisions(self, scalar_write_path, sets, keys, flip,
                                 stream, scheme_name, unbounded, co_mach,
                                 verify, rate, buffer_policy, thermal,
                                 n_frames):
        script = _scripted(sets, keys, flip, stream)
        with mock.patch.object(WritebackEngine, "_content_features",
                               script):
            _assert_same_run(
                scalar_write_path, scheme_name,
                _config(co_mach, verify, rate, thermal),
                unbounded_mach=unbounded, buffer_policy=buffer_policy,
                n_frames=n_frames)
