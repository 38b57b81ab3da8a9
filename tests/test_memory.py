"""Tests for the LPDDR3 memory subsystem."""

from __future__ import annotations

import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import DramConfig, SimulationConfig
from repro.errors import MemoryModelError
from repro.memory import (
    AddressMapper,
    MemoryController,
    RegionMap,
    burst_duration,
    memory_energy,
    peak_bandwidth,
)

from .conftest import replay_whole_run
from .mach_oracle import BankState, RowBufferModel


def small_dram(**overrides) -> DramConfig:
    defaults = dict(channels=2, ranks_per_channel=1, banks_per_rank=4,
                    row_bytes=1024, row_max_open=1e-6, scheduler_quantum=0.0)
    defaults.update(overrides)
    return DramConfig(**defaults)


class TestAddressMapper:
    def test_consecutive_lines_alternate_channels(self):
        config = small_dram()
        mapper = AddressMapper(config)
        bank0, _ = mapper.map_line(0)
        bank1, _ = mapper.map_line(64)
        # RoRaBaCoCh: the channel bit sits right above the line offset.
        assert bank0 != bank1

    def test_sequential_stream_sweeps_row_before_bank(self):
        config = small_dram()
        mapper = AddressMapper(config)
        # Lines 0, 2, 4, ... stay on channel 0; the first
        # lines_per_row of them share (bank, row).
        per_row = config.lines_per_row
        lines = np.arange(0, per_row * 4, 2) * 64
        banks, rows = mapper.map_lines(lines)
        same_row = set(zip(banks[:per_row].tolist(), rows[:per_row].tolist()))
        assert len(same_row) == 1
        assert (banks[per_row] != banks[0]) or (rows[per_row] != rows[0])

    def test_row_changes_after_all_banks(self):
        config = small_dram()
        mapper = AddressMapper(config)
        bytes_per_row_sweep = (config.row_bytes * config.banks_per_rank
                               * config.channels)
        _, row_a = mapper.map_line(0)
        _, row_b = mapper.map_line(bytes_per_row_sweep)
        assert row_b == row_a + 1

    def test_vector_matches_scalar(self, rng):
        config = small_dram()
        mapper = AddressMapper(config)
        addresses = rng.integers(0, 1 << 24, size=100)
        banks, rows = mapper.map_lines(addresses)
        for i in range(100):
            bank, row = mapper.map_line(int(addresses[i]))
            assert (bank, row) == (int(banks[i]), int(rows[i]))

    @pytest.mark.parametrize("channels, ranks, banks",
                             [(2, 1, 4), (2, 2, 8), (4, 4, 2), (1, 2, 1)])
    def test_fields_fold_into_global_bank(self, rng, channels, ranks, banks):
        config = small_dram(channels=channels, ranks_per_channel=ranks,
                            banks_per_rank=banks)
        addresses = rng.integers(0, 1 << 40, size=200)
        got_banks, got_rows = AddressMapper(config).map_lines(addresses)
        for address, got_bank, got_row in zip(addresses.tolist(), got_banks,
                                               got_rows):
            # RoRaBaCoCh, MSB to LSB, above the line offset.
            line = address // config.line_bytes
            channel, line = line % channels, line // channels
            line //= config.lines_per_row  # the column
            bank, line = line % banks, line // banks
            rank, row = line % ranks, line // ranks
            assert got_bank == (rank * channels + channel) * banks + bank
            assert got_row == row

    def test_bank_ids_in_range(self, rng):
        config = small_dram()
        mapper = AddressMapper(config)
        banks, _ = mapper.map_lines(rng.integers(0, 1 << 28, size=1000))
        assert banks.min() >= 0
        assert banks.max() < config.total_banks


class TestRegionMap:
    def test_regions_dont_overlap(self):
        config = small_dram()
        regions = RegionMap(config)
        a = regions.add("a", 1000)
        b = regions.add("b", 5000)
        assert a.end <= b.base

    def test_row_padding(self):
        config = small_dram()
        regions = RegionMap(config)
        region = regions.add("x", 1)
        assert region.size % (config.row_bytes * config.channels) == 0

    def test_duplicate_name_rejected(self):
        regions = RegionMap(small_dram())
        regions.add("x", 10)
        with pytest.raises(MemoryModelError):
            regions.add("x", 10)

    def test_offset_bounds(self):
        regions = RegionMap(small_dram())
        region = regions.add("x", 100)
        with pytest.raises(MemoryModelError):
            region.address(region.size)

    def test_lookup(self):
        regions = RegionMap(small_dram())
        regions.add("x", 10)
        assert "x" in regions
        with pytest.raises(MemoryModelError):
            regions["y"]


class TestBankState:
    def test_first_access_activates(self):
        bank = BankState()
        assert bank.access(row=5, time=0.0, max_open=1e-6)

    def test_same_row_within_window_hits(self):
        bank = BankState()
        bank.access(5, 0.0, 1e-6)
        assert not bank.access(5, 0.5e-6, 1e-6)

    def test_timeout_forces_reactivation(self):
        bank = BankState()
        bank.access(5, 0.0, 1e-6)
        assert bank.access(5, 2e-6, 1e-6)

    def test_row_conflict(self):
        bank = BankState()
        bank.access(5, 0.0, 1e-6)
        assert bank.access(6, 0.1e-6, 1e-6)


class TestMemoryController:
    def test_sequential_stream_hits_rows(self):
        config = small_dram()
        controller = MemoryController(config)
        n = 256
        addresses = np.arange(n) * 64
        times = np.arange(n) * 1e-9
        acts = controller.process_window(
            times, addresses.copy(), np.zeros(n, dtype=bool))
        # A sequential sweep activates each (bank, row) once.
        banks, rows = controller.mapper.map_lines(addresses)
        distinct = len(set(zip(banks.tolist(), rows.tolist())))
        assert acts == distinct

    def test_interleaved_streams_thrash(self):
        config = small_dram()
        n = 64
        # Two streams on the same bank, different rows, alternating.
        row_stride = config.row_bytes * config.banks_per_rank * config.channels
        stream_a = np.arange(n) % 2 * 0  # constant line 0
        stream_b = np.full(n, 10 * row_stride)
        addresses = np.empty(2 * n, dtype=np.int64)
        addresses[0::2] = stream_a
        addresses[1::2] = stream_b
        times = np.arange(2 * n) * 1e-9
        controller = MemoryController(config)
        acts = controller.process_window(
            times, addresses, np.zeros(2 * n, dtype=bool))
        assert acts == 2 * n  # every access reopens

    def test_quantum_groups_row_hits(self):
        # Same thrashing pattern, but an FR-FCFS quantum covering the
        # whole window lets the controller serve each row's accesses
        # together: only two activations.
        config = small_dram(scheduler_quantum=1.0)
        n = 64
        row_stride = config.row_bytes * config.banks_per_rank * config.channels
        addresses = np.empty(2 * n, dtype=np.int64)
        addresses[0::2] = 0
        addresses[1::2] = 10 * row_stride
        times = np.arange(2 * n) * 1e-9
        controller = MemoryController(config)
        acts = controller.process_window(
            times, addresses, np.zeros(2 * n, dtype=bool))
        assert acts == 2

    def test_state_carries_across_windows(self):
        config = small_dram()
        controller = MemoryController(config)
        ones = np.ones(1, dtype=bool)
        assert controller.process_window(
            np.asarray([0.0]), np.asarray([0]), ~ones) == 1
        # Same row shortly after, in a new window: row is still open.
        assert controller.process_window(
            np.asarray([1e-7]), np.asarray([0]), ~ones) == 0

    def test_matches_scalar_reference(self, rng):
        """Vectorized controller == scalar RowBufferModel, access by access."""
        config = small_dram()
        n = 500
        addresses = rng.integers(0, 1 << 16, size=n) // 64 * 64
        times = np.sort(rng.uniform(0, 1e-4, size=n))
        controller = MemoryController(config)
        acts = controller.process_window(
            times, addresses.copy(), np.zeros(n, dtype=bool))
        reference = RowBufferModel(config)
        mapper = AddressMapper(config)
        order = np.lexsort((times, mapper.map_lines(addresses)[0]))
        for index in order:
            bank, row = mapper.map_line(int(addresses[index]))
            reference.access(bank, row, float(times[index]))
        assert acts == reference.activations

    def test_read_write_attribution(self):
        config = small_dram()
        controller = MemoryController(config)
        times = np.asarray([0.0, 1e-9, 2e-9])
        addresses = np.asarray([0, 64, 128])
        writes = np.asarray([True, False, True])
        controller.process_window(times, addresses, writes,
                                  agents=(["vd", "dc"],
                                          (~writes).astype(np.uint8)))
        assert controller.stats.write_bursts == 2
        assert controller.stats.read_bursts == 1
        assert controller.stats.by_agent == {"vd": 2, "dc": 1}

    @given(seed=st.integers(0, 2**32 - 1), n_windows=st.integers(1, 4),
           quantum_on=st.booleans(),
           origin=st.sampled_from(["zero", "negative", "far"]))
    @settings(max_examples=60, deadline=None)
    def test_windows_match_scalar_replay(self, seed, n_windows, quantum_on,
                                         origin):
        """Windows with tied timestamps and bank state carried between
        them replay like the scalar model in (bank, quantum, row, time)
        order, ties in arrival order, down to which agent activates."""
        config = small_dram(scheduler_quantum=3e-7 if quantum_on else 0.0)
        rng = np.random.default_rng(seed)
        controller = MemoryController(config)
        reference = RowBufferModel(config)
        names = ["vd", "dc", "other"]
        bursts = dict.fromkeys(names, 0)
        acts = dict.fromkeys(names, 0)
        # "far" puts rows ~2**47 and quanta ~2**20 out, past what one
        # packed int64 sort key holds; "negative" starts before t = 0.
        start = {"zero": 0.0, "negative": -2e-6, "far": 2.0 ** 20 * 3e-7}[
            origin]
        base = 1 << 60 if origin == "far" else 0
        for _ in range(n_windows):
            n = int(rng.integers(1, 60))
            # A coarse time grid makes ties; a window spans less than
            # row_max_open, so rows stay open into the next one.
            times = start + rng.integers(0, 8, n) * 1e-7
            addresses = base + rng.integers(0, 1 << 15, n)  # a few rows
            writes = rng.random(n) < 0.5
            codes = rng.integers(0, len(names), n, dtype=np.uint8)
            banks, rows = controller.mapper.map_lines(addresses)
            if quantum_on:
                quanta = (times / config.scheduler_quantum).astype(np.int64)
                order = np.lexsort((times, rows, quanta, banks))
            else:
                order = np.lexsort((times, banks))
            for i in order:
                bursts[names[codes[i]]] += 1
                if reference.access(int(banks[i]), int(rows[i]),
                                    float(times[i])):
                    acts[names[codes[i]]] += 1
            controller.process_window(times, addresses, writes,
                                      (names, codes))
            start += 8e-7
        stats = controller.stats
        assert stats.activations == reference.activations
        assert stats.bursts == reference.accesses
        assert stats.by_agent == bursts
        assert stats.acts_by_agent == acts
        assert list(stats.acts_by_agent) == names
        for bank, state in enumerate(reference.banks):
            assert controller._open_rows[bank] == state.open_row
            assert controller._last_access[bank] == state.last_access

    def test_order_gathered_over_many_slices(self, monkeypatch):
        """The replay order is gathered a slice at a time; slices much
        shorter than the window replay like the scalar model."""
        from repro.memory import controller as controller_module

        monkeypatch.setattr(controller_module, "_GATHER_SLICE", 7)
        config = small_dram(scheduler_quantum=3e-7)
        rng = np.random.default_rng(3)
        n = 500
        times = rng.integers(0, 40, n) * 1e-7
        addresses = rng.integers(0, 1 << 15, n)
        codes = rng.integers(0, 2, n, dtype=np.uint8)
        banks, rows = AddressMapper(config).map_lines(addresses)
        quanta = (times / config.scheduler_quantum).astype(np.int64)
        reference = RowBufferModel(config)
        acts = [0, 0]
        for i in np.lexsort((times, rows, quanta, banks)):
            if reference.access(int(banks[i]), int(rows[i]),
                                float(times[i])):
                acts[codes[i]] += 1
        controller = MemoryController(config)
        assert controller.process_window(
            times, addresses, np.zeros(n, dtype=bool),
            (["vd", "dc"], codes)) == reference.activations
        assert controller.stats.acts_by_agent == {"vd": acts[0],
                                                  "dc": acts[1]}

    def test_empty_window(self):
        controller = MemoryController(small_dram())
        assert controller.process_window(
            np.empty(0), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool)) == 0

    def test_mismatched_lengths_rejected(self):
        controller = MemoryController(small_dram())
        with pytest.raises(MemoryModelError):
            controller.process_window(
                np.zeros(2), np.zeros(3, dtype=np.int64),
                np.zeros(2, dtype=bool))

    @given(st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_mapper_total_ordering(self, address):
        mapper = AddressMapper(small_dram())
        bank, row = mapper.map_line(address)
        assert 0 <= bank < 8
        assert row >= 0


def _scaled_dram() -> DramConfig:
    """The controller as ``simulate`` builds it: timing scaled with the
    simulated frame."""
    scale = SimulationConfig().video.scale_to_native
    dram = DramConfig()
    return replace(dram, row_max_open=dram.row_max_open * scale,
                   scheduler_quantum=dram.scheduler_quantum * scale)


def _log_run(log, chunks: int) -> None:
    """A run's traffic as ``simulate`` logs it: ``chunks`` sorted
    1k-access chunks from three agents, each over 50 ms and a new one
    every 2.5 ms, then the CPU/GPU masters' sorted run-long chunk of
    60 accesses per chunk."""
    rng = np.random.default_rng(7)
    agents = ["vd_write", "vd_read", "dc"]
    for i in range(chunks):
        start = i / 400
        log.add(agents[i % 3], np.sort(rng.uniform(start, start + 0.05, 1000)),
                rng.integers(0, 32 << 20, 1000) // 64 * 64,
                is_write=i % 3 == 0)
    count = 60 * chunks
    log.add("other", np.sort(rng.uniform(0.0, chunks / 400, count)),
            rng.integers(0, 32 << 20, count) // 64 * 64, is_write=False)


class TestReplayMemory:
    #: Bytes per access the replay may allocate beyond its inputs.  A
    #: replay that keeps each full-length intermediate to the end needs
    #: ~75; one that drops each once used needs ~32.
    PEAK_BYTES_PER_ACCESS = 56

    def test_window_peak_stays_lean(self):
        # One run's traffic, as the pipeline replays it: ~100k accesses
        # over a second from four agents, on the scaled controller.
        scale = SimulationConfig().video.scale_to_native
        dram = DramConfig()
        dram = replace(dram, row_max_open=dram.row_max_open * scale,
                       scheduler_quantum=dram.scheduler_quantum * scale)
        count = 100_000
        rng = np.random.default_rng(7)
        times = np.sort(rng.uniform(0.0, 1.0, count))
        addresses = rng.integers(0, 32 << 20, count) // 64 * 64
        writes = rng.random(count) < 0.3
        agents = (["vd_write", "vd_read", "dc", "other"],
                  rng.integers(0, 4, count, dtype=np.uint8))
        controller = MemoryController(dram)
        tracemalloc.start()  # traces only what the replay allocates
        try:
            controller.process_window(times, addresses, writes, agents)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert controller.stats.bursts == count
        assert peak / count < self.PEAK_BYTES_PER_ACCESS

    #: Bytes per access from the first logged access to the end of the
    #: replay, the log itself included.  A replay that allocates beside
    #: the drained arrays it is handed peaks at ~50; one that reuses
    #: them, at ~36.
    LOG_PEAK_BYTES_PER_ACCESS = 44
    #: The same, for the windowed replay: the log's ~16.3 B/access plus
    #: one window's working set measures ~24.2 on this log, where the
    #: whole-run replay of the concatenated log measures 36.0.
    WINDOWED_PEAK_BYTES_PER_ACCESS = 27

    def test_log_drain_and_replay_peak(self):
        # ~400k accesses logged in 1k-access chunks from four agents,
        # replayed the way ``simulate`` ends a run.
        from repro.core.pipeline import _TrafficLog

        scale = SimulationConfig().video.scale_to_native
        dram = DramConfig()
        dram = replace(dram, row_max_open=dram.row_max_open * scale,
                       scheduler_quantum=dram.scheduler_quantum * scale)
        chunk, chunks = 1000, 400
        agents = ["vd_write", "vd_read", "dc", "other"]
        rng = np.random.default_rng(7)
        controller = MemoryController(dram)
        tracemalloc.start()
        try:
            log = _TrafficLog()
            for i in range(chunks):
                start = i / chunks
                log.add(agents[i % 4],
                        np.sort(rng.uniform(start, start + 0.05, chunk)),
                        rng.integers(0, 32 << 20, chunk) // 64 * 64,
                        is_write=i % 4 == 0)
            log.replay(controller)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert controller.stats.bursts == chunk * chunks
        assert controller.stats.by_agent == dict.fromkeys(agents, 100_000)
        assert peak / (chunk * chunks) < self.LOG_PEAK_BYTES_PER_ACCESS

    def test_windowed_replay_peak(self):
        # The log above, replayed a window at a time.
        from repro.core.pipeline import _TrafficLog

        chunk, chunks = 1000, 400
        agents = ["vd_write", "vd_read", "dc", "other"]
        rng = np.random.default_rng(7)
        controller = MemoryController(_scaled_dram())
        tracemalloc.start()
        try:
            log = _TrafficLog()
            for i in range(chunks):
                start = i / chunks
                log.add(agents[i % 4],
                        np.sort(rng.uniform(start, start + 0.05, chunk)),
                        rng.integers(0, 32 << 20, chunk) // 64 * 64,
                        is_write=i % 4 == 0)
            log.replay(controller)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert controller.stats.bursts == chunk * chunks
        assert peak / (chunk * chunks) < self.WINDOWED_PEAK_BYTES_PER_ACCESS

    def test_replay_beyond_log_holds_as_run_doubles(self):
        """What the replay allocates beyond the log itself is one
        window's working set, whatever the run's length: doubling the
        run leaves it within 20%, where a whole-run replay doubles."""
        from repro.core.pipeline import _TrafficLog

        beyond = []
        for chunks in (300, 600):
            controller = MemoryController(_scaled_dram())
            tracemalloc.start()
            try:
                log = _TrafficLog()
                _log_run(log, chunks)
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                log.replay(controller)
                beyond.append(tracemalloc.get_traced_memory()[1] - held)
            finally:
                tracemalloc.stop()
            assert controller.stats.bursts == 1060 * chunks
        assert beyond[1] < 1.2 * beyond[0]


_AGENTS = ("vd_write", "vd_read", "dc", "other")


@st.composite
def traffic_logs(draw):
    """A run's log as chunks of ``(agent, times, addresses, is_write)``.

    Times are ticks of 0.1 us, so ties within and across chunks are
    common; chunks come sorted or shuffled, may start before time 0,
    and may be followed by one run-long chunk like the CPU/GPU masters'.
    Far times and addresses push the packed sort key past 62 bits, onto
    the replay's lexsort.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origin = draw(st.sampled_from([0.0, -3e-6, 1e9]))
    address_span = draw(st.sampled_from([1 << 15, 1 << 50]))
    chunks = []

    def chunk(count, first_tick, ticks, ordered):
        times = origin + (first_tick + rng.integers(0, ticks, count)) * 1e-7
        if ordered:
            times.sort()
        return (_AGENTS[rng.integers(0, 3)], times,
                rng.integers(0, address_span, count) // 64 * 64,
                bool(rng.integers(0, 2)))

    for _ in range(draw(st.integers(0, 12))):
        chunks.append(chunk(draw(st.integers(1, 40)),
                            draw(st.integers(0, 80)),
                            draw(st.integers(1, 30)), draw(st.booleans())))
    if draw(st.booleans()):
        _, times, addresses, _ = chunk(draw(st.integers(1, 200)), 0,
                                       110, draw(st.booleans()))
        chunks.append(("other", times, addresses, False))
    return chunks


class TestWindowedReplay:
    @given(chunks=traffic_logs(), quantum=st.sampled_from([0.0, 3e-7]),
           windows=st.integers(1, 50))
    @example(chunks=[], quantum=3e-7, windows=1)
    @example(chunks=[("dc", np.asarray([-1e-7]), np.asarray([64]), False)],
             quantum=3e-7, windows=1)
    @settings(max_examples=200, deadline=None)
    def test_matches_whole_run_replay(self, chunks, quantum, windows):
        """Replayed window by window, the log counts what the whole-run
        replay counts, agents in the same order, and leaves every bank
        in the same state."""
        from repro.core import pipeline

        def logged():
            log = pipeline._TrafficLog()
            for agent, times, addresses, is_write in chunks:
                log.add(agent, times.copy(), addresses.copy(), is_write)
            return log

        config = small_dram(scheduler_quantum=quantum)
        windowed, whole = MemoryController(config), MemoryController(config)
        total = sum(len(times) for _, times, _, _ in chunks)
        with mock.patch.object(pipeline, "_REPLAY_WINDOW",
                               max(1, total // windows)):
            logged().replay(windowed)
        replay_whole_run(logged(), whole)
        for field in ("activations", "read_bursts", "write_bursts"):
            assert getattr(windowed.stats, field) == getattr(whole.stats,
                                                             field)
        assert list(windowed.stats.by_agent.items()) == list(
            whole.stats.by_agent.items())
        assert list(windowed.stats.acts_by_agent.items()) == list(
            whole.stats.acts_by_agent.items())
        assert np.array_equal(windowed._open_rows, whole._open_rows)
        assert np.array_equal(windowed._last_access, whole._last_access)

    def test_long_log_replays_in_windows(self):
        """A log many windows long is played in quantum-aligned windows
        of about the window size."""
        from repro.core import pipeline

        log = pipeline._TrafficLog()
        _log_run(log, 300)
        config = _scaled_dram()
        controller = MemoryController(config)
        quanta = []
        play = controller.process_window

        def spy(times, *args):
            quanta.append(np.divide(times, config.scheduler_quantum)
                          .astype(np.int64))
            return play(times, *args)

        controller.process_window = spy
        log.replay(controller)
        sizes = [len(window) for window in quanta]
        assert sum(sizes) == 1060 * 300
        assert len(sizes) >= sum(sizes) // pipeline._REPLAY_WINDOW
        assert max(sizes) < 2 * pipeline._REPLAY_WINDOW
        for before, after in zip(quanta, quanta[1:]):
            assert before.max() < after.min()


@st.composite
def draw_programs(draw):
    """A run's generator calls in order: bounded 32-bit ``integers``
    (an odd size leaves a 32-bit half buffered), scalar draws, and
    arrival-time draws of zero or more accesses."""
    ops = st.one_of(
        st.tuples(st.just("integers"), st.integers(1, 9),
                  st.sampled_from([2, 1000, 1 << 31])),
        st.tuples(st.just("scalar"), st.sampled_from(["int", "float"])),
        st.tuples(st.just("uniform"), st.integers(0, 300),
                  st.floats(0.0, 1e3), st.floats(0.0, 10.0)))
    return draw(st.lists(ops, max_size=25))


def _play(program, rng, uniform):
    """Run ``program`` on ``rng``; ``uniform(start, end, count)`` makes
    each arrival-time draw.  Returns every other draw's values."""
    values = []
    for op in program:
        if op[0] == "integers":
            values.append(rng.integers(0, op[2], size=op[1]).tolist())
        elif op[0] == "scalar":
            values.append(rng.integers(0, 1000) if op[1] == "int"
                          else rng.random())
        else:
            _, count, start, width = op
            uniform(start, start + width, count)
    return values


def _live_state(rng):
    """What of a PCG64 generator's state later draws read: the 128-bit
    state and increment, and a buffered 32-bit half if there is one.
    (A used half's stale ``uinteger`` is never read again.)"""
    state = rng.bit_generator.state
    return (state["state"], state["has_uint32"],
            state["uinteger"] if state["has_uint32"] else None)


class TestDeferredDraw:
    @given(program=draw_programs(), seed=st.integers(0, 2**32 - 1))
    @example(program=[("integers", 3, 1000), ("uniform", 5, 1.0, 0.5),
                      ("scalar", "int")], seed=0)
    @example(program=[("scalar", "int"), ("uniform", 0, 0.0, 1.0),
                      ("uniform", 2, 0.0, 0.0), ("scalar", "int")], seed=1)
    @settings(max_examples=200, deadline=None)
    def test_regenerates_the_eager_draw(self, program, seed):
        """Times regenerated from a deferred draw's saved state equal
        the draw made on the spot, bit for bit, and the generator is
        left where the draw would leave it, a buffered 32-bit half
        included: every later draw and the final state agree."""
        from repro.core import pipeline

        eager_rng = np.random.default_rng(seed)
        eager = []

        def draw_now(start, end, count):
            if count:
                eager.append(pipeline._uniform_times(eager_rng, start, end,
                                                     count))

        deferred_rng = np.random.default_rng(seed)
        log = pipeline._TrafficLog()

        def defer(start, end, count):
            before = deferred_rng.bit_generator.state
            log.add_uniform("dc", deferred_rng, start, end,
                            np.zeros(count, dtype=np.int64), False)
            if not count:  # an empty draw logs and draws nothing
                assert deferred_rng.bit_generator.state == before

        assert _play(program, eager_rng, draw_now) == _play(
            program, deferred_rng, defer)
        scratch = np.random.Generator(np.random.PCG64(0))
        regenerated = [log._drawn(times, scratch) for times in log._times]
        assert [times.tobytes() for times in regenerated] == [
            times.tobytes() for times in eager]
        assert _live_state(deferred_rng) == _live_state(eager_rng)
        assert [deferred_rng.integers(0, 1000, size=3).tolist(),
                deferred_rng.random(2).tolist()] == [
            eager_rng.integers(0, 1000, size=3).tolist(),
            eager_rng.random(2).tolist()]

    def test_one_generator_per_log(self):
        from repro.core import pipeline

        log = pipeline._TrafficLog()
        log.add_uniform("dc", np.random.default_rng(1), 0.0, 1.0,
                        np.zeros(4, dtype=np.int64), False)
        with pytest.raises(ValueError):
            log.add_uniform("dc", np.random.default_rng(2), 0.0, 1.0,
                            np.zeros(4, dtype=np.int64), False)


def _time_bytes(times) -> int:
    """Bytes a logged chunk spends on its arrival times: an array's
    data, or a deferred draw's object and the values it holds."""
    if isinstance(times, np.ndarray):
        return times.nbytes
    return sys.getsizeof(times) + sum(
        sys.getsizeof(getattr(times, name)) for name in times.__slots__)


class TestDeferredTimesMemory:
    """A Baseline run's log keeps each deferred draw as its recipe, so
    the VD's writes and the DC's reads (~90 % of its accesses) cost
    the log their addresses, which are shared, and no times."""

    #: Bytes of time data per access of the agents whose draws are
    #: deferred: a logged array of times holds 8; a recipe of ~190 B
    #: per ~1k-access chunk, ~0.19.
    TIME_BYTES_PER_DEFERRED_ACCESS = 1.0
    #: Traced peak growth per DRAM access that doubling a V8 Baseline
    #: run (150 → 300 frames) adds: 9.1 B when the log holds every
    #: draw's times, 1.8 B when it defers them.  Half the former.
    GROWTH_BYTES_PER_ACCESS = 4.5

    @staticmethod
    def _frames(n_frames):
        from repro.video import SyntheticVideo, workload

        return list(SyntheticVideo(SimulationConfig().video, workload("V8"),
                                   seed=7, n_frames=n_frames))

    def test_log_holds_no_times_for_deferred_draws(self):
        from repro.config import BASELINE
        from repro.core import pipeline

        held = {"bytes": 0, "accesses": 0}
        replay = pipeline._TrafficLog.replay

        def measure(log, memory):
            for agent, times in zip(log._agents, log._times):
                if agent in ("vd_write", "dc"):
                    held["bytes"] += _time_bytes(times)
                    held["accesses"] += len(times)
            return replay(log, memory)

        with mock.patch.object(pipeline._TrafficLog, "replay", measure):
            result = pipeline.simulate(self._frames(96), BASELINE, seed=7)
        assert held["accesses"] > 0.8 * result.mem_stats.bursts
        assert (held["bytes"] / held["accesses"]
                <= self.TIME_BYTES_PER_DEFERRED_ACCESS)

    def test_doubled_run_grows_by_its_undeferred_traffic(self):
        from repro.config import BASELINE
        from repro.core import pipeline

        peaks, bursts = [], []
        for n_frames in (150, 300):
            frames = self._frames(n_frames)
            tracemalloc.start()
            try:
                result = pipeline.simulate(frames, BASELINE, seed=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            bursts.append(result.mem_stats.bursts)
        growth = (peaks[1] - peaks[0]) / (bursts[1] - bursts[0])
        assert growth < self.GROWTH_BYTES_PER_ACCESS


class TestMemoryEnergy:
    def test_components(self):
        config = small_dram()
        controller = MemoryController(config)
        n = 100
        controller.process_window(
            np.arange(n) * 1e-9, np.arange(n) * 64, np.zeros(n, dtype=bool))
        energy = memory_energy(config, controller.stats, elapsed=1.0)
        assert energy.act_pre == pytest.approx(
            controller.stats.activations * config.act_pre_energy)
        assert energy.burst == pytest.approx(n * config.burst_energy)
        assert energy.background == pytest.approx(config.background_power)
        assert energy.total == pytest.approx(
            energy.act_pre + energy.burst + energy.background)

    def test_scaled_keeps_background(self):
        config = small_dram()
        controller = MemoryController(config)
        controller.process_window(
            np.asarray([0.0]), np.asarray([0]), np.asarray([False]))
        energy = memory_energy(config, controller.stats, elapsed=2.0)
        scaled = energy.scaled(10.0)
        assert scaled.act_pre == pytest.approx(energy.act_pre * 10)
        assert scaled.background == pytest.approx(energy.background)


class TestDerivedTiming:
    def test_peak_bandwidth(self):
        config = small_dram(io_freq=800e6, channels=2)
        assert peak_bandwidth(config) == pytest.approx(12.8e9)

    def test_burst_duration(self):
        config = small_dram(io_freq=800e6)
        assert burst_duration(config) == pytest.approx(10e-9)
