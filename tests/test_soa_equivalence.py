"""Property tests: the SoA kernels are bit-identical to their scalar
references.

The vectorized hot path (:mod:`repro.core.soa`, the batched CRC tables,
the array display cache, the SoA memory controller, and the batched
write engine) is accepted only on exact equivalence: Hypothesis draws
random touch sequences, frames, and cache shapes, and every drawn case
must reproduce the scalar replay byte for byte — hits, providers,
residents, stats, layouts, and full :class:`RunResult` payloads.
"""

from __future__ import annotations

import dataclasses
import zlib
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simulate
from repro.config import (
    GAB,
    GAB_DCC,
    MAB,
    DramConfig,
    SimulationConfig,
    VideoConfig,
)
from repro.cache import SetAssociativeCache
from repro.core import soa
from repro.core.soa import count_smaller_left, lru_touch_classify
from repro.core.writeback import ContentFeatures, DigestGroups, WritebackEngine
from repro.display import (
    MachBuffer,
    simulate_direct_mapped,
    simulate_direct_mapped_array,
)
from repro.hashing.crc import crc16, crc32, crc16_blocks, crc32_blocks, crc_pair_blocks
from repro.memory.controller import MemoryController
from repro.video.frame import DecodedFrame, FrameType
from repro.video.synthesis import SyntheticVideo
from repro.video.workloads import workload

from .conftest import RecordMachBuffer, serve_records
from .mach_oracle import RowBufferModel, ScalarWritebackEngine

_TINY = SimulationConfig(video=VideoConfig(width=64, height=32))

_MACH_SCHEMES = {"MAB": MAB, "GAB": GAB, "GAB+DCC": GAB_DCC}


def _assert_equal(a, b, path=""):
    """Recursive exact equality over dataclasses / arrays / containers."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert np.array_equal(np.asarray(a), np.asarray(b)), path
        return
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        assert type(a) is type(b), path
        for field in dataclasses.fields(a):
            _assert_equal(getattr(a, field.name), getattr(b, field.name),
                          f"{path}.{field.name}")
        return
    if isinstance(a, dict):
        # Insertion order too: it decides Counter.most_common ties.
        assert list(a) == list(b), path
        for key in a:
            _assert_equal(a[key], b[key], f"{path}[{key!r}]")
        return
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_equal(x, y, f"{path}[{i}]")
        return
    assert a == b, (path, a, b)


class TestCountSmallerLeft:
    @given(st.lists(st.integers(0, 10_000), min_size=0, max_size=200,
                    unique=True))
    @settings(max_examples=40, deadline=None)
    def test_matches_quadratic_reference(self, values):
        arr = np.asarray(values, dtype=np.int64)
        expected = [int(np.sum(arr[:i] < arr[i])) for i in range(len(arr))]
        assert count_smaller_left(arr).tolist() == expected

    @given(st.permutations(range(97)))
    @settings(max_examples=20, deadline=None)
    def test_bound_variant_matches(self, perm):
        arr = np.asarray(perm, dtype=np.int64)
        assert np.array_equal(count_smaller_left(arr, bound=len(arr)),
                              count_smaller_left(arr))


def _lru_reference(sets, keys, ways):
    """Scalar insert-on-miss LRU replay (OrderedDict per set)."""
    state = {}
    hits, providers = [], []
    for i, (s, k) in enumerate(zip(sets, keys)):
        entries = state.setdefault(s, OrderedDict())
        if k in entries:
            hits.append(True)
            providers.append(entries[k])
            entries.move_to_end(k)
        else:
            hits.append(False)
            providers.append(-1)
            if len(entries) >= ways:
                entries.popitem(last=False)
            entries[k] = i
    resident_touch, resident_rank = [], []
    for s in sorted(state):
        for rank, insert_idx in enumerate(reversed(state[s].values())):
            resident_touch.append(insert_idx)
            resident_rank.append(rank)
    return hits, providers, resident_touch, resident_rank


class TestLruTouchClassify:
    @given(keys=st.lists(st.integers(0, 60), min_size=0, max_size=160),
           n_sets=st.sampled_from([1, 2, 4, 8]),
           ways=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_lru(self, keys, n_sets, ways):
        keys = np.asarray(keys, dtype=np.int64)
        sets = keys % n_sets  # a key maps to exactly one set
        got = lru_touch_classify(sets, keys, ways)
        hits, providers, res_touch, res_rank = _lru_reference(
            sets.tolist(), keys.tolist(), ways)
        assert got.hits.tolist() == hits
        assert got.provider.tolist() == providers
        assert got.resident_touch.tolist() == res_touch
        assert got.resident_rank.tolist() == res_rank


def _set_associative_replay(keys, n_sets, ways):
    """:class:`SetAssociativeCache` replay of an insert-on-miss touch
    sequence, in :class:`~repro.core.soa.LruClassification` form."""
    cache = SetAssociativeCache(n_sets, ways)
    hits, providers = [], []
    for i, key in enumerate(keys):
        result, value = cache.lookup(key)
        hits.append(result.is_hit)
        providers.append(value if result.is_hit else -1)
        if not result.is_hit:
            cache.insert(key, i)
    per_set = {}
    for key, insert_idx in cache.items():  # set by set, LRU first
        per_set.setdefault(key & (n_sets - 1), []).append(insert_idx)
    resident_touch, resident_rank = [], []
    for s in sorted(per_set):
        resident_touch += per_set[s][::-1]
        resident_rank += list(range(len(per_set[s])))
    return hits, providers, resident_touch, resident_rank


def _assert_classify_matches_cache(keys, n_sets, ways):
    keys = np.asarray(keys, dtype=np.int64)
    got = lru_touch_classify(keys & (n_sets - 1), keys, ways)
    hits, providers, res_touch, res_rank = _set_associative_replay(
        keys.tolist(), n_sets, ways)
    assert got.hits.tolist() == hits
    assert got.provider.tolist() == providers
    assert got.resident_touch.tolist() == res_touch
    assert got.resident_rank.tolist() == res_rank


def _mergesort_calls(monkeypatch):
    """Calls of ``lru_stack_hits``' mergesort side, recorded."""
    calls = []
    links_inside = soa._links_inside

    def counting(*args):
        calls.append(len(args[0]))
        return links_inside(*args)

    monkeypatch.setattr(soa, "_links_inside", counting)
    return calls


class TestLruSizeSelection:
    """Scripted touch sequences on both sides of ``lru_stack_hits``'
    dense/mergesort selection, at the simulated MACH's 8 sets x 4 ways
    and a 1,296-block frame."""

    SETS, WAYS, TOUCHES = 8, 4, 1296

    def _cycle(self, n_keys):
        """``n_keys`` keys of set 5, touched round-robin."""
        return 5 + self.SETS * (np.arange(self.TOUCHES) % n_keys)

    def test_cycle_of_ways_plus_one_keys_takes_the_mergesort(
            self, monkeypatch):
        calls = _mergesort_calls(monkeypatch)
        # Every window holds `ways` distinct keys: all touches miss.
        keys = self._cycle(self.WAYS + 1)
        _assert_classify_matches_cache(keys, self.SETS, self.WAYS)
        assert calls == [self.TOUCHES - self.WAYS - 1]

    def test_cycle_of_ways_keys_decides_directly(self, monkeypatch):
        calls = _mergesort_calls(monkeypatch)
        # Every window is ways - 1 long: all links hit, none counted.
        keys = self._cycle(self.WAYS)
        _assert_classify_matches_cache(keys, self.SETS, self.WAYS)
        assert calls == []

    def test_few_long_windows_count_densely(self, monkeypatch):
        calls = _mergesort_calls(monkeypatch)
        rng = np.random.default_rng(5)
        # Mostly immediate repeats, with a handful of keys recurring
        # after long gaps: far below the dense budget.
        keys = np.repeat(rng.integers(0, 1 << 20, self.TOUCHES // 4), 4)
        keys[rng.choice(self.TOUCHES, 24, replace=False)] = rng.integers(
            0, 12, 24)
        _assert_classify_matches_cache(keys, self.SETS, self.WAYS)
        assert calls == []

    def test_random_frame_over_the_budget_takes_the_mergesort(
            self, monkeypatch):
        calls = _mergesort_calls(monkeypatch)
        rng = np.random.default_rng(6)
        keys = rng.integers(0, 300, self.TOUCHES)
        _assert_classify_matches_cache(keys, self.SETS, self.WAYS)
        assert len(calls) == 1

    @given(keys=st.lists(st.integers(0, 60), min_size=0, max_size=160),
           n_sets=st.sampled_from([1, 2, 4, 8]),
           ways=st.integers(1, 5),
           budget=st.sampled_from([0, 1 << 62]))
    @settings(max_examples=60, deadline=None)
    def test_either_side_alone_matches_the_cache(self, keys, n_sets, ways,
                                                 budget):
        # Budget 0 sends every long window to the mergesort; an
        # unreachable budget counts every one densely.
        with mock.patch.object(soa, "_DENSE_BUDGET", budget):
            _assert_classify_matches_cache(keys, n_sets, ways)


class TestMachBufferServe:
    """:meth:`MachBuffer.serve` against the record-level reference."""

    @given(frames=st.lists(
               st.tuples(st.lists(st.integers(0, 80), max_size=60),
                         st.lists(st.integers(0, 80), max_size=24)),
               max_size=8),
           policy=st.sampled_from(["lazy", "eager"]),
           capacity=st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_matches_record_level_reference(self, frames, policy,
                                            capacity):
        fast = MachBuffer(capacity, policy=policy)
        slow = RecordMachBuffer(capacity, policy=policy)
        for records, dump in frames:
            if policy == "eager":
                dump = np.asarray(dump, dtype=np.uint64)
                assert fast.prefetch_dump(dump) == slow.prefetch_dump(dump)
            want_hits, want_missed = slow.process_frame(records)
            got_hits, got_missed = serve_records(fast, records)
            assert got_hits.tolist() == want_hits.tolist()
            assert got_missed.tolist() == want_missed.tolist()
            for counter in ("hits", "misses", "installed", "evicted"):
                assert getattr(fast, counter) == getattr(slow, counter)
            assert list(fast._resident) == list(slow._resident)


class TestCrcBlocks:
    @given(rows=st.integers(0, 12), cols=st.integers(0, 80),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_blockwise_matches_scalar(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
        want32 = [crc32(row.tobytes()) for row in blocks]
        want16 = [crc16(row.tobytes()) for row in blocks]
        assert crc32_blocks(blocks).tolist() == want32
        assert crc16_blocks(blocks).tolist() == want16
        pair32, pair16 = crc_pair_blocks(blocks)
        assert pair32.tolist() == want32
        assert pair16.tolist() == want16
        # The scalar crc32 itself is zlib's.
        assert want32 == [zlib.crc32(row.tobytes()) for row in blocks]


class TestDisplayCacheArray:
    @given(windows=st.lists(
        st.lists(st.integers(0, 40), min_size=0, max_size=60),
        min_size=1, max_size=4),
        n_slots=st.sampled_from([4, 8, 16]))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_reference(self, windows, n_slots):
        state_arr = np.full(n_slots, -1, dtype=np.int64)
        state_dict = None
        for window in windows:
            keys = np.asarray(window, dtype=np.int64)
            hits_arr = simulate_direct_mapped_array(keys, n_slots, state_arr)
            hits_dict, state_dict = simulate_direct_mapped(
                keys, n_slots, state_dict)
            assert np.array_equal(hits_arr, hits_dict)
        for slot in range(n_slots):
            want = (state_dict or {}).get(slot)
            got = int(state_arr[slot])
            assert got == (-1 if want is None else want)


class TestMemoryControllerEquivalence:
    @given(n=st.integers(1, 120), seed=st.integers(0, 2**31 - 1),
           quantum_on=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_rowbuffer_replay(self, n, seed, quantum_on):
        dram = DramConfig()
        if not quantum_on:
            dram = dataclasses.replace(dram, scheduler_quantum=0.0)
        rng = np.random.default_rng(seed)
        times = rng.uniform(0.0, 0.05, size=n)
        lines = rng.integers(0, 1 << 22, size=n, dtype=np.int64) * 64
        writes = rng.integers(0, 2, size=n).astype(bool)
        ctrl = MemoryController(dram)
        # Replay the same scheduling order through the scalar per-bank
        # model; banks are independent, so any bank-grouped order that
        # is time-sorted inside each (bank, quantum, row) run gives the
        # canonical activation count.
        banks, rows = ctrl.mapper.map_lines(lines)
        if dram.scheduler_quantum > 0:
            quanta = (times / dram.scheduler_quantum).astype(np.int64)
            order = np.lexsort((times, rows, quanta, banks))
        else:
            order = np.lexsort((times, banks))
        scalar = RowBufferModel(dram)
        for i in order:
            scalar.access(int(banks[i]), int(rows[i]), float(times[i]))
        ctrl.process_window(times, lines, writes)
        assert ctrl.stats.activations == scalar.activations
        assert ctrl.stats.bursts == scalar.accesses


def _random_stream(cfg, profile_key, n_frames, seed):
    return list(SyntheticVideo(
        cfg.video, workload(profile_key), seed=seed, n_frames=n_frames,
        complexity_sigma=cfg.calibration.complexity_sigma))


def _assert_kernel_matches_walk(fast, slow, frames, walks=None):
    """Feed ``frames`` to both engines; every output must agree exactly.

    With the ``walks`` fixture, also check that ``fast`` ran the kernel
    on every frame and ``slow`` the walk.
    """
    base = 32 * 1024 * 1024
    for i, frame in enumerate(frames):
        slot = base + (i % 3) * 4 * 1024 * 1024
        got = fast.process_frame(frame, slot)
        want = slow.process_frame(frame, slot)
        _assert_equal(got.layout, want.layout, "layout")
        assert np.array_equal(got.write_lines, want.write_lines)
        _assert_equal(got.matches, want.matches, "matches")
        assert got.bytes_written == want.bytes_written
        # The kernel reads the digest groups off its runs; the walk
        # groups its DIGEST records.  Both match the layout's records.
        layout_groups = DigestGroups.of_records(want.layout.kinds,
                                                want.layout.digests)
        for groups in (got.digest_groups, want.digest_groups):
            for column in DigestGroups._fields:
                assert np.array_equal(getattr(groups, column),
                                      getattr(layout_groups, column)), column
        # One dump form: the same columns, element by element, in
        # ascending digest order from either path.
        for column in ("digests", "addresses", "aux"):
            assert np.array_equal(getattr(got.dump, column),
                                  getattr(want.dump, column)), column
        assert np.all(np.diff(got.dump.digests) > 0)
    _assert_equal(fast.ring.stats.__dict__, slow.ring.stats.__dict__,
                  "ring.stats")
    assert (list(fast.ring.stats.match_counter.items())
            == list(slow.ring.stats.match_counter.items()))
    if walks is not None:
        assert fast not in walks
        assert walks.count(slow) == len(frames)


class TestWritebackEquivalence:
    @given(scheme_name=st.sampled_from(sorted(_MACH_SCHEMES)),
           unbounded=st.booleans(),
           profile_key=st.sampled_from(["V1", "V5", "V8"]),
           seed=st.integers(0, 5))
    @settings(max_examples=12, deadline=None)
    def test_kernel_matches_scalar_engine(self, scheme_name, unbounded,
                                          profile_key, seed):
        scheme = _MACH_SCHEMES[scheme_name]
        cfg = _TINY
        stream = _random_stream(cfg, profile_key, 6, seed)
        fast = WritebackEngine(cfg.video, cfg.mach, scheme,
                               cfg.dram.line_bytes,
                               unbounded_mach=unbounded)
        slow = ScalarWritebackEngine(cfg.video, cfg.mach, scheme,
                                     cfg.dram.line_bytes,
                                     unbounded_mach=unbounded)
        _assert_kernel_matches_walk(fast, slow, stream)


class _ScriptedTags:
    """Engine mixin: frame ``i`` carries the tags ``script[i]`` instead
    of digests of its bytes, so a test can shape the MACH's input.  A
    ``(tags, aux)`` pair scripts the CRC16 auxes too (zeros otherwise)."""

    script: list

    def _content_features(self, blocks):
        entry = self.script.pop(0)
        tags, aux = entry if isinstance(entry, tuple) else (entry, 0)
        tags = np.asarray(tags, dtype=np.int64)
        return ContentFeatures(
            tags, np.broadcast_to(np.asarray(aux, dtype=np.int64),
                                  tags.shape).copy(), None)


class _ScriptedKernel(_ScriptedTags, WritebackEngine):
    pass


class _ScriptedWalk(_ScriptedTags, ScalarWritebackEngine):
    pass


class TestKernelAtScale:
    """Kernel against walk at the default geometry (1,296 blocks a frame)."""

    @pytest.mark.parametrize("profile_key, scheme_name",
                             [("V8", "GAB"), ("V3", "GAB+DCC")])
    def test_default_video(self, walks, profile_key, scheme_name):
        cfg = SimulationConfig()
        scheme = _MACH_SCHEMES[scheme_name]
        # 24 frames: the first meets an empty ring, later ones a full one.
        stream = _random_stream(cfg, profile_key, 24, 7)
        fast = WritebackEngine(cfg.video, cfg.mach, scheme,
                               cfg.dram.line_bytes)
        slow = ScalarWritebackEngine(cfg.video, cfg.mach, scheme,
                                     cfg.dram.line_bytes)
        _assert_kernel_matches_walk(fast, slow, stream, walks)

    @staticmethod
    def _run_script(walks, script, scheme_name, unbounded, mach=None):
        cfg = SimulationConfig()
        if mach is not None:
            cfg = dataclasses.replace(cfg, mach=mach)
        n = cfg.video.blocks_per_frame
        frames = [DecodedFrame(i, FrameType.P,
                               np.zeros((n, cfg.video.block_bytes),
                                        dtype=np.uint8), 1.0, 0)
                  for i in range(len(script))]
        engines = []
        for cls in (_ScriptedKernel, _ScriptedWalk):
            engine = cls(cfg.video, cfg.mach, _MACH_SCHEMES[scheme_name],
                         cfg.dram.line_bytes, unbounded_mach=unbounded)
            engine.script = list(script)
            engines.append(engine)
        fast, slow = engines
        _assert_kernel_matches_walk(fast, slow, frames, walks)
        return fast.ring.stats

    @pytest.mark.parametrize("scheme_name", ["MAB", "GAB"])
    @pytest.mark.parametrize("unbounded", [False, True])
    def test_every_touch_in_one_set(self, walks, scheme_name, unbounded):
        cfg = SimulationConfig()
        n = cfg.video.blocks_per_frame
        sets = cfg.mach.sets_per_mach
        rng = np.random.default_rng(11)
        # 3 * ways keys, all mapping to set 5: evictions on most touches.
        keys = 5 + sets * np.arange(1, 3 * cfg.mach.ways + 1)
        script = [rng.choice(keys, size=n) for _ in range(4)]
        stats = self._run_script(walks, script, scheme_name, unbounded)
        assert stats.intra > 0 and stats.none > 0

    @pytest.mark.parametrize("scheme_name", ["MAB", "GAB"])
    @pytest.mark.parametrize("unbounded", [False, True])
    def test_every_block_in_the_ring(self, walks, scheme_name, unbounded):
        cfg = SimulationConfig()
        n = cfg.video.blocks_per_frame
        # Exactly `ways` keys per set: all of them stay resident, so
        # the next frame finds every block in the frozen ring.
        keys = np.arange(cfg.mach.entries_per_mach) + 1000
        rng = np.random.default_rng(12)
        script = [np.resize(keys, n), rng.choice(keys, size=n)]
        stats = self._run_script(walks, script, scheme_name, unbounded)
        assert stats.inter == n

    @pytest.mark.parametrize("scheme_name", ["MAB", "GAB"])
    @pytest.mark.parametrize("unbounded", [False, True])
    def test_one_tag_fills_the_frame(self, walks, scheme_name, unbounded):
        n = SimulationConfig().video.blocks_per_frame
        script = [np.full(n, 77)] * 3
        stats = self._run_script(walks, script, scheme_name, unbounded)
        assert (stats.none, stats.intra, stats.inter) == (1, n - 1, 2 * n)
        assert list(stats.match_counter.items()) == [(77, 3 * n - 1)]


class TestCollisionsAtScale:
    """Kernel against walk on frames that hold CRC16 disagreements, at
    the default geometry (1,296 blocks a frame, 4 ways, a one-set
    CO-MACH)."""

    _run_script = staticmethod(TestKernelAtScale._run_script)

    @staticmethod
    def _mach(co_mach):
        return dataclasses.replace(SimulationConfig().mach, co_mach=co_mach)

    @pytest.mark.parametrize("co_mach", [False, True])
    @pytest.mark.parametrize("unbounded", [False, True])
    def test_two_auxes_within_a_frame(self, walks, co_mach, unbounded):
        n = SimulationConfig().video.blocks_per_frame
        rng = np.random.default_rng(21)
        # Tag 9 under two auxes, interleaved with tags of its own set.
        tags = np.where(rng.random(n) < 0.3, 9, 9 + 8 * rng.integers(1, 9, n))
        aux = np.where(tags == 9, rng.integers(1, 3, n), 0)
        stats = self._run_script(walks, [(tags, aux)] * 3, "GAB", unbounded,
                                 self._mach(co_mach))
        if co_mach:
            assert stats.detected_collisions > 0
            assert stats.silent_collisions == 0
        else:
            assert stats.silent_collisions > 0
            assert stats.detected_collisions == 0

    @pytest.mark.parametrize("co_mach", [False, True])
    def test_other_aux_in_the_ring(self, walks, co_mach):
        n = SimulationConfig().video.blocks_per_frame
        tags = np.arange(n) % 64 + 100
        # Frame 1 meets frame 0's tags under another aux for half of them.
        script = [(tags, 1), (tags, np.where(tags % 2 == 0, 2, 1)),
                  (tags, 2)]
        stats = self._run_script(walks, script, "MAB", False,
                                 self._mach(co_mach))
        assert (stats.detected_collisions if co_mach
                else stats.silent_collisions) > 0

    @pytest.mark.parametrize("scheme_name", ["MAB", "GAB"])
    def test_co_mach_spill_and_hit(self, walks, scheme_name):
        n = SimulationConfig().video.blocks_per_frame
        rng = np.random.default_rng(23)
        # Tags 5 and 13 under two auxes each: the second aux of a
        # resident tag spills into the CO-MACH and hits there next time;
        # the other tags of their set evict them now and then.
        tags = rng.choice([5, 13, 21, 29, 37, 45], size=n)
        aux = np.where(tags < 20, rng.integers(1, 3, n), 0)
        stats = self._run_script(walks, [(tags, aux)] * 4, scheme_name,
                                 False, self._mach(True))
        assert stats.co_mach_hits > 0
        assert stats.detected_collisions > stats.co_mach_hits


@pytest.fixture
def walks(monkeypatch):
    """Every engine that runs a frame through the scalar walk, once per frame."""
    walked = []
    scalar_walk = ScalarWritebackEngine._walk

    def counting(engine, *args):
        walked.append(engine)
        return scalar_walk(engine, *args)

    monkeypatch.setattr(ScalarWritebackEngine, "_walk", counting)
    return walked


class TestPipelineEquivalence:
    def test_scalar_switch_reaches_the_pipeline(self, scalar_write_path,
                                                walks):
        simulate(workload("V8"), GAB, n_frames=4, config=_TINY)
        assert walks == []
        with scalar_write_path():
            simulate(workload("V8"), GAB, n_frames=4, config=_TINY)
        assert len(walks) == 4

    def test_eager_prefetch_runs_the_kernel(self, walks):
        for scheme in _MACH_SCHEMES.values():
            simulate(workload("V8"), scheme, n_frames=6, config=_TINY,
                     buffer_policy="eager")
        assert walks == []

    @given(scheme_name=st.sampled_from(sorted(_MACH_SCHEMES)),
           buffer_policy=st.sampled_from(["lazy", "eager"]),
           seed=st.integers(0, 3))
    @settings(max_examples=8, deadline=None)
    def test_run_result_identical(self, scalar_write_path, scheme_name,
                                  buffer_policy, seed):
        scheme = _MACH_SCHEMES[scheme_name]
        kwargs = dict(n_frames=12, config=_TINY, seed=seed,
                      buffer_policy=buffer_policy)
        fast = simulate(workload("V8"), scheme, **kwargs)
        with scalar_write_path():
            slow = simulate(workload("V8"), scheme, **kwargs)
        _assert_equal(fast, slow, "RunResult")
