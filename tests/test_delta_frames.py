"""Delta frames: per-block content work follows the blocks that changed.

The write engine carries each block's digest, CRC16 aux and DCC size
over from the previous frame unless the block's bytes changed, and the
synthesizer renders a row only when it re-rolls it.  Both must be
exact, so the oracles here recompute everything from scratch: the
features on every frame, the every-row render of the synthesiser's
former scene state (``tests/synthesis_oracle.py``), and whole
``RunResult`` payloads with change detection forced to "every row".
"""

from __future__ import annotations

import contextlib
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simulate
from repro.compression.dcc import compressed_sizes
from repro.config import (
    DCC_ONLY,
    GAB,
    GAB_DCC,
    MAB,
    FaultConfig,
    MachConfig,
    SimulationConfig,
    ThermalConfig,
    VideoConfig,
)
from repro.core import writeback
from repro.core.gradient import to_gradient
from repro.core.writeback import WritebackEngine
from repro.hashing.crc import crc_pair_blocks
from repro.hashing.digest import get_scheme
from repro.video.synthesis import SyntheticVideo
from repro.video.trace import FrameTrace
from repro.video.workloads import workload, workload_keys

from .synthesis_oracle import oracle_synthesis

_VIDEO = VideoConfig(width=64, height=32)
_MAB_DCC = dataclasses.replace(MAB, name="MAB+DCC", dcc=True)


# -- write path: cached features vs a fresh computation ------------------------

def fresh_features(blocks, scheme, digest_scheme):
    """Every block's ``(tags, aux, dcc_sizes)``, computed from scratch."""
    rows = to_gradient(blocks)[0] if scheme.content_cache == "gab" else blocks
    tags = aux = None
    if scheme.uses_mach:
        if digest_scheme == "crc32":
            crc32s, crc16s = crc_pair_blocks(rows)
            tags, aux = crc32s.astype(np.int64), crc16s.astype(np.int64)
        else:
            digests = get_scheme(digest_scheme).digest_blocks(rows)
            tags = digests.astype(np.int64)
            aux = np.zeros(len(tags), dtype=np.int64)
    sizes = compressed_sizes(rows) if scheme.dcc else None
    return tags, aux, sizes


def _random_frame(rng, n, block_size):
    return rng.integers(0, 256, (n, 3 * block_size * block_size),
                        dtype=np.uint8)


def _trace_view(blocks, read_only, sliced):
    """``blocks`` replayed through a FrameTrace whose storage is a
    read-only and/or strided (non-contiguous rows) array."""
    n, k = blocks.shape
    block_size = int(round((k // 3) ** 0.5))
    stack = np.zeros((1, n, 2 * k if sliced else k), dtype=np.uint8)
    if sliced:
        stack[0, :, ::2] = blocks
    else:
        stack[0] = blocks
    if read_only:
        stack.setflags(write=False)
    trace = FrameTrace(
        width=n * block_size, height=block_size, block_size=block_size,
        blocks=stack[:, :, ::2] if sliced else stack,
        frame_types=np.ones(1, dtype=np.uint8), complexity=np.ones(1),
        encoded_bits=np.ones(1, dtype=np.int64))
    return next(iter(trace)).blocks


_STEPS = ("same", "same_object", "all_changed", "one_row", "few_rows",
          "in_place", "reshape", "trace_view")


def _frames(rng, n, block_size, steps):
    """A first frame, then one frame per step.

    Lazy on purpose: ``in_place`` scribbles on the array the engine
    consumed last and hands the same object back.
    """
    blocks = _random_frame(rng, n, block_size)
    yield blocks
    for step in steps:
        n, k = blocks.shape
        if step == "same_object":
            pass
        elif step == "in_place":
            if not blocks.flags.writeable:
                blocks = blocks.copy()
            blocks[rng.integers(n)] ^= np.uint8(0xA5)
        elif step == "reshape":
            blocks = _random_frame(rng, int(rng.integers(1, 13)),
                                   int(rng.choice([1, 2, 4])))
        elif step == "all_changed":
            blocks = rng.integers(0, 256, (n, k), dtype=np.uint8)
        else:
            blocks = blocks.copy()
            if step == "one_row":
                blocks[rng.integers(n), rng.integers(k)] ^= np.uint8(1)
            elif step == "few_rows":
                rows = rng.random(n) < 0.3
                blocks[rows] = rng.integers(0, 256, (int(rows.sum()), k),
                                            dtype=np.uint8)
            elif step == "trace_view":
                blocks[rng.integers(n)] ^= np.uint8(0x5A)
                blocks = _trace_view(blocks, read_only=bool(rng.integers(2)),
                                     sliced=bool(rng.integers(2)))
        yield blocks


@given(scheme=st.sampled_from([GAB, MAB, GAB_DCC, _MAB_DCC, DCC_ONLY]),
       digest_scheme=st.sampled_from(["crc32", "md5"]),
       n=st.integers(1, 12), block_size=st.sampled_from([1, 2, 4]),
       steps=st.lists(st.sampled_from(_STEPS), min_size=1, max_size=10),
       seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_cached_features_equal_fresh(scheme, digest_scheme, n, block_size,
                                     steps, seed):
    engine = WritebackEngine(_VIDEO, MachConfig(digest_scheme=digest_scheme),
                             scheme)
    rng = np.random.default_rng(seed)
    for index, blocks in enumerate(_frames(rng, n, block_size, steps)):
        want = fresh_features(blocks, scheme, digest_scheme)
        got = engine._content_features(blocks)
        for name, g, w in zip(("tags", "aux", "dcc_sizes"), got, want):
            if w is None:
                assert g is None, name
            else:
                assert g.dtype == w.dtype, name
                assert np.array_equal(g, w), (index, name)


# -- synthesis: render-on-reroll vs the oracle ----------------------------------

def _frames_of(profile, seed, n_frames, video=_VIDEO):
    return [(frame.blocks, frame.complexity, frame.encoded_bits,
             frame.frame_type)
            for frame in SyntheticVideo(video, profile, seed=seed,
                                        n_frames=n_frames)]


def _assert_same_frames(got, want):
    assert len(got) == len(want)
    for index, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g[0], w[0]), index
        assert g[1:] == w[1:], index


@pytest.mark.parametrize("key", workload_keys())
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_incremental_render_equals_full_render(key, seed):
    # Scene cuts at frames 10 and 20, besides the first frame.
    profile = dataclasses.replace(workload(key), scene_len=10)
    got = _frames_of(profile, seed, 25)
    for full_render in (False, True):
        with oracle_synthesis(full_render):
            _assert_same_frames(got, _frames_of(profile, seed, 25))


def test_default_geometry_equals_oracle():
    got = _frames_of(workload("V8"), 7, 100, VideoConfig())
    with oracle_synthesis():
        want = _frames_of(workload("V8"), 7, 100, VideoConfig())
    _assert_same_frames(got, want)


def test_mutating_a_yielded_frame_leaves_later_frames_alone():
    clean = [frame.blocks.copy() for frame in
             SyntheticVideo(_VIDEO, workload("V8"), seed=3, n_frames=12)]
    stream = SyntheticVideo(_VIDEO, workload("V8"), seed=3, n_frames=12)
    for frame, want in zip(stream, clean):
        assert np.array_equal(frame.blocks, want), frame.index
        frame.blocks[:] = 0xFF


# -- end to end: delta frames are inert ------------------------------------------

_THERMAL = SimulationConfig(thermal=ThermalConfig(
    enabled=True, seed=7, event_interval=1.0, cap_drop_rate=1.0,
    cap_drop_duty=0.5, delayed_transition_rate=0.5))
_FAULTS = SimulationConfig(faults=FaultConfig(block_bit_error=2e-5,
                                              digest_collision=0.01))

_RUNS = {
    "V8-GAB": ("V8", GAB, {}),
    "V3-GAB+DCC-thermal": ("V3", GAB_DCC, {"config": _THERMAL}),
    "V1-MAB": ("V1", MAB, {}),
    "V8-GAB+DCC-faults": ("V8", GAB_DCC, {"config": _FAULTS}),
    "V8-GAB-scalar": ("V8", GAB, {}),
    "V8-GAB-eager": ("V8", GAB, {"buffer_policy": "eager"}),
    "V8-DCC": ("V8", DCC_ONLY, {}),
}


def _run_json(name, n_frames=96):
    key, scheme, kwargs = _RUNS[name]
    result = simulate(workload(key), scheme, n_frames=n_frames, seed=7,
                      **kwargs)
    return json.dumps(result.to_jsonable(), sort_keys=True)


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_delta_frames_are_inert(monkeypatch, scalar_write_path, name):
    with (scalar_write_path() if name.endswith("-scalar")
          else contextlib.nullcontext()):
        delta = _run_json(name)
        monkeypatch.setattr(
            writeback, "_changed_rows",
            lambda current, previous: np.ones(len(current), dtype=bool))
        with oracle_synthesis(full_render=True):
            assert _run_json(name) == delta


def _count_rows(monkeypatch, name):
    """Rows passed to ``writeback.<name>``, one entry per call."""
    rows = []
    original = getattr(writeback, name)

    def counting(blocks):
        rows.append(len(blocks))
        return original(blocks)

    monkeypatch.setattr(writeback, name, counting)
    return rows


def test_fewer_rows_digested_than_frames_times_blocks(monkeypatch):
    digested = _count_rows(monkeypatch, "crc_pair_blocks")
    _run_json("V8-GAB")
    assert len(digested) == 96
    assert sum(digested) < 96 * SimulationConfig().video.blocks_per_frame


def test_one_gradient_per_gab_dcc_frame(monkeypatch):
    gradients = _count_rows(monkeypatch, "to_gradient")
    _run_json("V3-GAB+DCC-thermal", n_frames=32)
    assert len(gradients) == 32
