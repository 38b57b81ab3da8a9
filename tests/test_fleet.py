"""Tests for repro.fleet — population engine, sketches, surrogate.

The load-bearing properties here are the determinism contracts: the
online aggregates must be *exactly* mergeable (any shard layout or
merge tree produces bit-identical JSON), and the population draws must
be pure functions of (seed, uid) so re-sharding never changes who the
fleet is.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GAB, SimulationConfig
from repro.errors import ConfigError, FleetError, RunnerError
from repro.fleet import (
    DeviceClass,
    FleetCalibration,
    FleetResult,
    HistogramSketch,
    LognormalComponent,
    PopulationModel,
    PopulationSpec,
    RegionSpec,
    ReservoirSample,
    StreamingMoments,
    calibrate,
    default_population,
    hash_u01_array,
    hash_u64_array,
    load_or_calibrate,
    run_fleet,
)
from repro.fleet.engine import (
    BANDWIDTH_FLOOR,
    HIST_METRICS,
    METRICS,
    CohortAggregate,
    _score_chunk,
    cohort_keys,
    fold_chunk,
)
from repro.executor import Supervisor
from repro.fleet import surrogate
from repro.fleet.population import SessionChunk
from repro.runner import run_matrix
from repro.units import MBPS
from repro.video import workload_keys

from .conftest import (
    calibrate_serial,
    draw_chunk_searchsorted,
    fold_chunk_masked,
    hash_u64_reference,
    rung_searchsorted,
)
from .test_executor import Square, fast_config

finite_values = st.lists(
    st.floats(min_value=-1e4, max_value=1e4,
              allow_nan=False, allow_infinity=False),
    max_size=120)
positive_values = st.lists(
    st.floats(min_value=1e-7, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    max_size=120)


#: Mixture and categorical weights spanning 24 decades, so cumulative
#: tables carry entries near 0 and entries that round to 1 before
#: their end.
extreme_weights = st.one_of(
    st.sampled_from((1e-12, 1e-6, 1.0, 1e6, 1e12)),
    st.floats(min_value=1e-12, max_value=1e12))

bandwidth_components = st.builds(
    LognormalComponent, weight=extreme_weights,
    median=st.floats(min_value=0.1 * MBPS, max_value=100 * MBPS),
    sigma=st.floats(min_value=0.0, max_value=2.0))


@st.composite
def population_specs(draw) -> PopulationSpec:
    """1-4 devices, 1-4 regions of 1-4 bandwidth components each, 1-8
    titles with a Zipf exponent in [0, 2]."""
    devices = tuple(
        DeviceClass(name=f"d{i}", weight=draw(extreme_weights))
        for i in range(draw(st.integers(1, 4))))
    regions = tuple(
        RegionSpec(name=f"r{i}", weight=draw(extreme_weights),
                   cells=draw(st.integers(1, 40)),
                   bandwidth=tuple(draw(st.lists(bandwidth_components,
                                                 min_size=1, max_size=4))))
        for i in range(draw(st.integers(1, 4))))
    titles = tuple(draw(st.lists(st.sampled_from(workload_keys()),
                                 min_size=1, max_size=8, unique=True)))
    return PopulationSpec(
        device_classes=devices, regions=regions, titles=titles,
        zipf_exponent=draw(st.floats(min_value=0.0, max_value=2.0)))


def tiny_spec(seed: int = 3) -> PopulationSpec:
    """A 2-title, 1-device population cheap enough for unit tests."""
    return PopulationSpec(
        device_classes=(DeviceClass(name="ref", scheme="gab"),),
        regions=(RegionSpec(
            name="town", cells=2, cell_capacity=6 * MBPS,
            bandwidth=(LognormalComponent(median=5 * MBPS, sigma=0.4),),
        ),),
        titles=("V1", "V8"),
        duration_median_seconds=8.0,
        duration_sigma=0.3,
        duration_min_seconds=4.0,
        duration_max_seconds=20.0,
        arrival_window_seconds=30.0,
        epoch_seconds=2.0,
        calib_frames=16,
        calib_seed=seed,
    )


def smoke_spec() -> PopulationSpec:
    """A 1-device, 2-title population whose calibration runs in <1 s,
    for the throughput, memory and supervision budgets."""
    return PopulationSpec(
        device_classes=(DeviceClass(name="ref", scheme="gab"),),
        regions=(RegionSpec(
            name="town", cells=4, cell_capacity=40 * MBPS,
            bandwidth=(LognormalComponent(median=10 * MBPS, sigma=0.5),),
        ),),
        titles=("V1", "V8"),
        calib_frames=16,
        calib_seed=7,
    )


#: Run in a fresh interpreter: sessions/s at the reference population
#: size, then the process's peak RSS after each rung of the ladder.  The
#: peak is the kernel's VmHWM of this process alone: ``ru_maxrss`` would
#: start at the spawning process's high-water mark.
_FLEET_BUDGET_SCRIPT = """
import json, sys, time
from repro.fleet import PopulationSpec, calibrate, run_fleet

def peak_bytes():
    with open("/proc/self/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024

spec = PopulationSpec.from_jsonable(json.loads(sys.argv[1]))
reference, ladder = int(sys.argv[2]), json.loads(sys.argv[3])
calibration = calibrate(spec)
start = time.perf_counter()
run_fleet(spec, reference, seed=7, shards=4, calibration=calibration)
per_second = reference / (time.perf_counter() - start)
peaks = []
for sessions in ladder:
    run_fleet(spec, sessions, seed=7, shards=4, calibration=calibration)
    peaks.append(peak_bytes())
print(json.dumps({"sessions_per_second": per_second, "peaks": peaks}))
"""


@pytest.fixture(scope="module")
def spec() -> PopulationSpec:
    return tiny_spec()


@pytest.fixture(scope="module")
def calib(spec: PopulationSpec) -> FleetCalibration:
    return calibrate(spec)


class TestStreamingMoments:
    @given(finite_values, st.integers(0, 120))
    @settings(max_examples=40, deadline=None)
    def test_merge_matches_serial_fold(self, values, cut):
        cut = min(cut, len(values))
        serial = StreamingMoments()
        serial.add_array(np.asarray(values))
        left, right = StreamingMoments(), StreamingMoments()
        left.add_array(np.asarray(values[:cut]))
        right.add_array(np.asarray(values[cut:]))
        assert left.merge(right).to_jsonable() == serial.to_jsonable()
        assert right.merge(left).to_jsonable() == serial.to_jsonable()

    @given(finite_values, finite_values, finite_values)
    @settings(max_examples=40, deadline=None)
    def test_merge_associative(self, a_vals, b_vals, c_vals):
        a, b, c = (StreamingMoments() for _ in range(3))
        a.add_array(np.asarray(a_vals))
        b.add_array(np.asarray(b_vals))
        c.add_array(np.asarray(c_vals))
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.to_jsonable() == right.to_jsonable()

    def test_statistics_against_numpy(self):
        rng = np.random.default_rng(11)
        values = rng.normal(50.0, 7.0, size=4000)
        moments = StreamingMoments()
        moments.add_array(values)
        assert moments.count == values.size
        assert moments.mean == pytest.approx(values.mean(), abs=1e-3)
        assert moments.std == pytest.approx(values.std(), rel=1e-3)
        assert moments.minimum == pytest.approx(values.min(), abs=1e-3)
        assert moments.maximum == pytest.approx(values.max(), abs=1e-3)

    def test_empty_summary(self):
        empty = StreamingMoments()
        assert empty.count == 0
        assert empty.mean == 0.0
        assert empty.variance == 0.0

    def test_quantum_mismatch_rejected(self):
        with pytest.raises(FleetError):
            StreamingMoments(quantum=1e-3).merge(
                StreamingMoments(quantum=1e-2))
        # A near-equal grid is a different grid: merging would mix
        # integer counts of two step sizes.
        with pytest.raises(FleetError):
            StreamingMoments(quantum=1e-3).merge(
                StreamingMoments(quantum=1.000001e-3))

    def test_nan_rejected(self):
        moments = StreamingMoments()
        moments.add_array(np.asarray([2.0]))
        before = moments.to_jsonable()
        with pytest.raises(FleetError):
            moments.add_array(np.asarray([1.0, np.nan]))
        assert moments.to_jsonable() == before

    def test_infinities_clip(self):
        moments = StreamingMoments()
        moments.add_array(np.asarray([np.inf, -np.inf, 1.0]))
        assert moments.count == 3
        assert moments.q_max == 2 ** 31 - 1
        assert moments.q_min == -(2 ** 31 - 1)
        assert moments.q_sum == 1000

    @given(finite_values)
    @settings(max_examples=25, deadline=None)
    def test_json_round_trip(self, values):
        moments = StreamingMoments()
        moments.add_array(np.asarray(values))
        data = json.loads(json.dumps(moments.to_jsonable()))
        assert StreamingMoments.from_jsonable(
            data).to_jsonable() == moments.to_jsonable()


class TestHistogramSketch:
    @given(positive_values, st.integers(0, 120))
    @settings(max_examples=40, deadline=None)
    def test_merge_matches_serial_fold(self, values, cut):
        cut = min(cut, len(values))
        serial = HistogramSketch()
        serial.add_array(np.asarray(values))
        left, right = HistogramSketch(), HistogramSketch()
        left.add_array(np.asarray(values[:cut]))
        right.add_array(np.asarray(values[cut:]))
        merged = left.merge(right)
        assert merged.to_jsonable() == serial.to_jsonable()
        assert merged.total == len(values)

    def test_quantile_bounds(self):
        hist = HistogramSketch()
        values = np.geomspace(0.01, 100.0, 500)
        hist.add_array(values)
        for q, exact in ((0.5, np.quantile(values, 0.5)),
                         (0.95, np.quantile(values, 0.95))):
            measured = hist.quantile(q)
            assert measured == pytest.approx(exact, rel=0.08)
        assert hist.quantile(0.0) <= hist.quantile(1.0)

    def test_out_of_range_values_counted(self):
        hist = HistogramSketch()
        hist.add_array(np.asarray([0.0, -3.0, 1e-9, 1e9]))
        assert hist.total == 4
        assert int(hist.counts[0]) == 3  # zero, negative, below range
        assert int(hist.counts[-1]) == 1

    def test_infinities_land_in_overflow_slots(self):
        hist = HistogramSketch()
        hist.add_array(np.asarray([np.inf, -np.inf, 1.0]))
        assert hist.total == 3
        assert int(hist.counts[0]) == 1
        assert int(hist.counts[-1]) == 1

    def test_nan_rejected(self):
        hist = HistogramSketch()
        with pytest.raises(FleetError):
            hist.add_array(np.asarray([1.0, np.nan]))
        assert hist.total == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FleetError):
            HistogramSketch(bins_per_decade=8).merge(HistogramSketch())

    def test_json_round_trip(self):
        hist = HistogramSketch()
        hist.add_array(np.geomspace(0.1, 10.0, 64))
        data = json.loads(json.dumps(hist.to_jsonable()))
        restored = HistogramSketch.from_jsonable(data)
        assert restored.to_jsonable() == hist.to_jsonable()


class TestReservoirSample:
    @given(st.lists(st.integers(0, 2**40), unique=True, max_size=150),
           st.integers(0, 2**32), st.integers(0, 150))
    @settings(max_examples=40, deadline=None)
    def test_offer_order_free(self, uids, seed, cut):
        cut = min(cut, len(uids))
        uid_arr = np.asarray(uids, dtype=np.int64)
        values = uid_arr.astype(np.float64) * 0.5
        whole = ReservoirSample(capacity=16, seed=seed)
        whole.offer_array(uid_arr, values)
        chunked = ReservoirSample(capacity=16, seed=seed)
        chunked.offer_array(uid_arr[cut:], values[cut:])
        chunked.offer_array(uid_arr[:cut], values[:cut])
        assert chunked.to_jsonable() == whole.to_jsonable()

    @given(st.lists(st.integers(0, 2**40), unique=True, max_size=150),
           st.integers(0, 2**32), st.integers(0, 150))
    @settings(max_examples=40, deadline=None)
    def test_merge_matches_union(self, uids, seed, cut):
        cut = min(cut, len(uids))
        uid_arr = np.asarray(uids, dtype=np.int64)
        values = uid_arr.astype(np.float64)
        whole = ReservoirSample(capacity=16, seed=seed)
        whole.offer_array(uid_arr, values)
        left = ReservoirSample(capacity=16, seed=seed)
        right = ReservoirSample(capacity=16, seed=seed)
        left.offer_array(uid_arr[:cut], values[:cut])
        right.offer_array(uid_arr[cut:], values[cut:])
        assert left.merge(right).to_jsonable() == whole.to_jsonable()
        assert right.merge(left).to_jsonable() == whole.to_jsonable()

    def test_capacity_bound_and_determinism(self):
        uids = np.arange(1000, dtype=np.int64)
        values = uids.astype(np.float64)
        first = ReservoirSample(capacity=32, seed=5)
        second = ReservoirSample(capacity=32, seed=5)
        first.offer_array(uids, values)
        second.offer_array(uids, values)
        assert len(first.uids) == 32
        assert first.to_jsonable() == second.to_jsonable()
        other_seed = ReservoirSample(capacity=32, seed=6)
        other_seed.offer_array(uids, values)
        assert other_seed.uids != first.uids

    def test_seed_mismatch_rejected(self):
        with pytest.raises(FleetError):
            ReservoirSample(seed=1).merge(ReservoirSample(seed=2))


#: Values on both sides of every sketch boundary: zero and negatives,
#: past the +-2**31 clip of the 1e-3 quantum (~2.1e6), below the
#: histogram range (1e-6) and at or above its top (1e7).
EDGE_VALUES = np.asarray([0.0, -0.0, -2.5, -3e6, 3e6, 2.2e9, 5e-7, 1e-6,
                          1e7, 4e8, 1e-3, 5e-4, 7.0])


def empty_partial(spec: PopulationSpec, capacity: int,
                  seed: int) -> Dict[str, CohortAggregate]:
    """A fresh stripe partial whose reservoirs keep ``capacity``."""
    return {key: CohortAggregate(
        key=key, moments={m: StreamingMoments() for m in METRICS},
        hists={m: HistogramSketch() for m in HIST_METRICS},
        sample=ReservoirSample(capacity=capacity, seed=seed))
        for key in cohort_keys(spec)}


def scored_chunk(rng: np.random.Generator, spec: PopulationSpec,
                 allowed: Sequence[Sequence[int]], uid_pool: int,
                 n: int) -> Tuple[SessionChunk, Dict[str, np.ndarray]]:
    """``n`` sessions with device/region/title codes drawn from
    ``allowed``, uids from ``range(uid_pool)`` (so uids repeat), and
    metric values mixing :data:`EDGE_VALUES` with values spread over
    17 decades of both signs."""
    device, region, title = (rng.choice(np.asarray(codes), n)
                             for codes in allowed)
    zeros = np.zeros(n)
    chunk = SessionChunk(
        uid=rng.integers(0, uid_pool, n), device=device, region=region,
        cell=np.zeros(n, dtype=np.int64), title=title,
        duration_seconds=zeros, bandwidth=zeros, start_seconds=zeros)
    spread = (rng.choice([-1.0, 1.0], n)
              * 10.0 ** rng.uniform(-8.0, 9.0, n))
    metrics = {name: np.where(rng.random(n) < 0.3,
                              rng.choice(EDGE_VALUES, n), spread)
               for name in METRICS}
    return chunk, metrics


def every_code(spec: PopulationSpec) -> List[range]:
    """Every device, region and title code of ``spec``."""
    return [range(len(spec.device_classes)), range(len(spec.regions)),
            range(len(spec.titles))]


def fold_both(spec: PopulationSpec, capacity: int, seed: int,
              chunks: Sequence[Tuple[SessionChunk, Dict[str, np.ndarray]]]
              ) -> Tuple[Dict[str, object], Dict[str, object]]:
    """(grouped, masked reference) JSON of every cohort after folding
    ``chunks`` in order."""
    grouped = empty_partial(spec, capacity, seed)
    reference = empty_partial(spec, capacity, seed)
    for chunk, metrics in chunks:
        fold_chunk(grouped, spec, chunk, metrics)
        fold_chunk_masked(reference, spec, chunk, metrics)
    return ({key: cohort.to_jsonable() for key, cohort in grouped.items()},
            {key: cohort.to_jsonable()
             for key, cohort in reference.items()})


class TestGroupedFold:
    """``fold_chunk`` against the per-cohort masked reference."""

    @given(st.data(), st.integers(1, 8), st.integers(0, 2**32),
           st.integers(1, 400), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_masked_reference(self, data, capacity, seed,
                                      uid_pool, rng_seed):
        spec = default_population()
        rng = np.random.default_rng(rng_seed)
        chunks = []
        for _ in range(data.draw(st.integers(1, 5), label="chunks")):
            # Mostly every code, so the reservoirs fill and the
            # admission bound engages; sometimes a subset, so cohorts
            # go missing from the chunk.
            allowed = [data.draw(st.one_of(
                st.just(codes),
                st.lists(st.sampled_from(codes), min_size=1, unique=True)))
                for codes in every_code(spec)]
            n = data.draw(st.integers(1, 300), label="sessions")
            chunks.append(scored_chunk(rng, spec, allowed, uid_pool, n))
        grouped, reference = fold_both(spec, capacity, seed, chunks)
        assert grouped == reference

    def test_reoffered_uids_at_the_bound(self):
        # Capacity 1 fills every cohort with its smallest-priority uid;
        # offering the same uids again ties on (priority, uid) exactly
        # at each cohort's admission bound.
        spec = default_population()
        rng = np.random.default_rng(5)
        every = every_code(spec)
        first, metrics = scored_chunk(rng, spec, every, 10**6, 300)
        partial = empty_partial(spec, 1, 9)
        fold_chunk(partial, spec, first, metrics)
        assert all(cohort.sample.admission_bound() is not None
                   for cohort in partial.values())
        twice = SessionChunk(**{name: np.tile(column, 2)
                                for name, column in vars(first).items()})
        _, new_values = scored_chunk(rng, spec, every, 1, 600)
        grouped, reference = fold_both(
            spec, 1, 9, [(first, metrics), (twice, new_values)])
        assert grouped == reference

    def test_nan_rejected(self):
        spec = default_population()
        rng = np.random.default_rng(1)
        every = every_code(spec)
        chunk, metrics = scored_chunk(rng, spec, every, 100, 50)
        metrics["radio_energy"][7] = np.nan
        with pytest.raises(FleetError):
            fold_chunk(empty_partial(spec, 4, 0), spec, chunk, metrics)


class TestHashing:
    def test_unit_interval_and_determinism(self):
        idx = np.arange(10_000, dtype=np.int64)
        u = hash_u01_array(9, 0x1234, idx)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert 0.45 < u.mean() < 0.55
        again = hash_u01_array(9, 0x1234, idx)
        assert np.array_equal(u, again)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), site=st.integers(0, 2 ** 16),
           indices=st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                            max_size=50))
    def test_matches_reference_and_keeps_input(self, seed, site, indices):
        idx = np.asarray(indices, dtype=np.int64)
        before = idx.copy()
        bits = hash_u64_array(seed, site, idx)
        assert bits.dtype == np.uint64
        assert np.array_equal(bits, hash_u64_reference(seed, site, idx))
        assert np.array_equal(idx, before)
        as_u64 = idx.astype(np.uint64)
        assert np.array_equal(hash_u64_array(seed, site, as_u64), bits)
        assert np.array_equal(as_u64, before.astype(np.uint64))

    def test_site_and_seed_separation(self):
        idx = np.arange(256, dtype=np.int64)
        base = hash_u64_array(9, 0x1234, idx)
        assert not np.array_equal(base, hash_u64_array(9, 0x1235, idx))
        assert not np.array_equal(base, hash_u64_array(10, 0x1234, idx))


class TestPopulation:
    def test_chunk_draws_are_pure_per_uid(self, spec):
        model = PopulationModel(spec, seed=21)
        whole = model.draw_chunk(0, 600)
        tail = model.draw_chunk(200, 400)
        for name in ("device", "region", "cell", "title"):
            assert np.array_equal(getattr(whole, name)[200:],
                                  getattr(tail, name))
        for name in ("duration_seconds", "bandwidth", "start_seconds"):
            assert np.array_equal(getattr(whole, name)[200:],
                                  getattr(tail, name))

    @settings(max_examples=80, deadline=None)
    @given(spec=population_specs(), seed=st.integers(0, 2 ** 63),
           start=st.integers(0, 2 ** 62), count=st.integers(0, 400))
    def test_table_draw_matches_searchsorted_reference(self, spec, seed,
                                                       start, count):
        model = PopulationModel(spec, seed=seed)
        drawn = model.draw_chunk(start, count)
        expected = draw_chunk_searchsorted(model, start, count)
        for name in ("uid", "device", "region", "cell", "title",
                     "duration_seconds", "bandwidth", "start_seconds"):
            got, want = getattr(drawn, name), getattr(expected, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    def test_degenerate_draws_raise_fleet_error(self, spec):
        model = PopulationModel(spec, seed=2)
        with pytest.raises(FleetError):
            model.draw_chunk(0, -3)
        with pytest.raises(FleetError):
            model.draw_chunk(-5, 3)
        empty = model.draw_chunk(0, 0)
        assert empty.size == 0
        assert empty.bandwidth.size == 0 and empty.device.dtype == np.int64

    def test_chunk_invariants(self, spec):
        chunk = PopulationModel(spec, seed=4).draw_chunk(0, 2000)
        assert chunk.device.max() < len(spec.device_classes)
        assert chunk.title.max() < len(spec.titles)
        assert chunk.cell.max() < spec.regions[0].cells
        assert np.all(chunk.duration_seconds >= spec.duration_min_seconds)
        assert np.all(chunk.duration_seconds <= spec.duration_max_seconds)
        assert np.all(chunk.bandwidth > 0)
        assert np.all((chunk.start_seconds >= 0)
                      & (chunk.start_seconds < spec.arrival_window_seconds))

    def test_zipf_titles_are_skewed(self):
        spec = default_population()
        chunk = PopulationModel(spec, seed=1).draw_chunk(0, 20_000)
        counts = np.bincount(chunk.title, minlength=len(spec.titles))
        assert counts[0] > counts[-1] * 1.5

    def test_spec_round_trip_and_fingerprint(self, spec):
        data = json.loads(json.dumps(spec.to_jsonable()))
        restored = PopulationSpec.from_jsonable(data)
        assert restored == spec
        assert restored.fingerprint() == spec.fingerprint()
        assert restored.fingerprint() != default_population().fingerprint()

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            PopulationSpec(device_classes=(), regions=tiny_spec().regions)
        with pytest.raises(ConfigError):
            DeviceClass(name="x", scheme="warp-drive")
        with pytest.raises(ConfigError):
            RegionSpec(name="r", cells=0, bandwidth=(
                LognormalComponent(median=MBPS),))


class TestRungPick:
    @settings(max_examples=60, deadline=None)
    @given(bottom=st.floats(min_value=0.2, max_value=5.0),
           steps=st.lists(st.floats(min_value=0.05, max_value=3.0),
                          max_size=5),
           safety=st.sampled_from((1.0, 0.5, 0.8)),
           scales=st.lists(st.floats(min_value=0.0, max_value=3.0),
                           max_size=20))
    def test_matches_searchsorted_reference(self, bottom, steps, safety,
                                            scales):
        rungs = [bottom * MBPS]
        for step in steps:
            rungs.append(rungs[-1] * (1.0 + step))
        spec = replace(tiny_spec(), ladder=tuple(rungs), abr_safety=safety)
        ladder = np.asarray(spec.ladder)
        # Bandwidths that fit each rung exactly (exact products for the
        # power-of-two safeties), values just below the bottom rung and
        # below the bandwidth floor, and random spans up to 3x the top.
        bandwidth = np.concatenate([
            ladder / safety,
            [ladder[0] / safety * 0.999, 0.0, 1.0],
            np.asarray(scales) * ladder[-1] / safety])
        if safety != 0.8:
            assert np.array_equal(safety * (ladder / safety), ladder)
        n = bandwidth.size
        zeros = np.zeros(n, dtype=np.int64)
        chunk = SessionChunk(
            uid=np.arange(n, dtype=np.int64), device=zeros, region=zeros,
            cell=zeros, title=zeros, duration_seconds=np.full(n, 10.0),
            bandwidth=bandwidth, start_seconds=np.zeros(n))
        tables = {"energy_per_frame": np.zeros((1, 2)),
                  "stall_power": np.zeros(1),
                  "throttle_fraction": np.zeros((1, 2))}
        factor = np.ones(n)
        metrics = _score_chunk(spec, chunk, factor, tables, 30.0)
        bw_eff = np.maximum(bandwidth, BANDWIDTH_FLOOR)
        rate = ladder[rung_searchsorted(ladder, safety * bw_eff)]
        expected = (spec.radio.promotion_latency
                    + spec.preroll_seconds * rate / bw_eff)
        assert np.array_equal(metrics["startup_seconds"], expected)


class TestCalibration:
    def test_covers_every_pair(self, spec, calib):
        assert calib.fingerprint == spec.fingerprint()
        for device in spec.device_classes:
            for title in spec.titles:
                entry = calib.entry(device.name, title)
                assert entry.energy_per_frame > 0
                assert entry.stall_power > 0

    def test_missing_pair_rejected(self, calib):
        with pytest.raises(FleetError):
            calib.entry("ref", "V999")

    def test_cache_round_trip(self, spec, calib, tmp_path):
        path = str(tmp_path / "calib.json")
        calib.save(path)
        assert FleetCalibration.load(
            path).to_jsonable() == calib.to_jsonable()

    def test_cache_hit_skips_recalibration(self, spec, calib, tmp_path):
        path = str(tmp_path / "calib.json")
        calib.save(path)
        log: list = []
        loaded = load_or_calibrate(spec, path, progress=log.append)
        assert loaded.to_jsonable() == calib.to_jsonable()
        # one drift probe, no "calibrating ..." lines
        assert [line for line in log if "calibrating" in line] == []

    def test_corrupt_cache_rebuilt(self, spec, calib, tmp_path):
        path = str(tmp_path / "calib.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        rebuilt = load_or_calibrate(spec, path, drift_check=False)
        assert rebuilt.to_jsonable() == calib.to_jsonable()

    def test_fingerprint_mismatch_rebuilt(self, spec, calib, tmp_path):
        path = str(tmp_path / "calib.json")
        stale = FleetCalibration(fingerprint="0" * 16,
                                 entries=dict(calib.entries))
        stale.save(path)
        rebuilt = load_or_calibrate(spec, path, drift_check=False)
        assert rebuilt.fingerprint == spec.fingerprint()


def calibration_json(calibration: FleetCalibration) -> str:
    return json.dumps(calibration.to_jsonable(), sort_keys=True)


class TestParallelCalibration:
    """``calibrate`` runs one executor task per title: its table must
    be the serial oracle's, byte for byte, whatever the worker count,
    and it must leave no worker behind."""

    def assert_matches_oracle(self, spec: PopulationSpec) -> None:
        calibration = calibrate(spec)
        assert multiprocessing.active_children() == []
        oracle = calibrate_serial(spec)
        assert calibration_json(calibration) == calibration_json(oracle)
        assert list(calibration.entries) == list(oracle.entries)

    @pytest.mark.parametrize("calib_seed", [7, 11])
    def test_default_population_matches_serial(self, calib_seed):
        self.assert_matches_oracle(
            replace(default_population(), calib_seed=calib_seed))

    def test_one_title_matches_serial(self):
        self.assert_matches_oracle(replace(tiny_spec(), titles=("V8",)))

    def test_worker_count_is_invisible(self, monkeypatch):
        """1 and 3 workers over 4 titles (more titles than workers)
        give byte-identical tables, equal to the serial oracle's."""
        spec = replace(tiny_spec(), titles=("V1", "V3", "V8", "V12"))
        tables = []
        for workers in (1, 3):
            monkeypatch.setattr(surrogate, "usable_workers",
                                lambda n_tasks, w=workers: w)
            tables.append(calibration_json(calibrate(spec)))
            assert multiprocessing.active_children() == []
        assert tables[0] == tables[1]
        assert tables[0] == calibration_json(calibrate_serial(spec))

    def test_pair_error_reaches_caller_typed(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ConfigError("broken pair")

        monkeypatch.setattr(surrogate, "_calibrate_pair", broken)
        with pytest.raises(ConfigError, match="broken pair"):
            calibrate(tiny_spec())
        assert multiprocessing.active_children() == []

    def test_refused_inside_an_executor_worker(self):
        """A typed error, not multiprocessing's daemonic-process
        assertion."""
        def nested(task):
            calibrate(tiny_spec())
            return {}

        outcomes = Supervisor([Square(0)], nested, lambda task, p: True,
                              fast_config()).run()
        assert isinstance(outcomes["toy", 0].error, RunnerError)
        assert multiprocessing.active_children() == []

    def test_progress_once_per_title_in_the_parent(self):
        spec = tiny_spec()
        calls: List[Tuple[str, int]] = []
        calibrate(spec, progress=lambda line: calls.append(
            (line, os.getpid())))
        assert [pid for _, pid in calls] == [os.getpid()] * len(spec.titles)
        for title in spec.titles:
            assert sum(f" {title} done" in line for line, _ in calls) == 1


class TestRunFleet:
    def test_shard_count_is_invisible(self, spec, calib):
        results = [run_fleet(spec, 700, seed=9, shards=shards,
                             calibration=calib)
                   for shards in (1, 3, 7)]
        baseline = results[0].to_jsonable()
        for other in results[1:]:
            assert other.to_jsonable() == baseline

    def test_result_round_trip(self, spec, calib):
        result = run_fleet(spec, 400, seed=2, calibration=calib)
        data = json.loads(json.dumps(result.to_jsonable(),
                                     sort_keys=True))
        restored = FleetResult.from_jsonable(data)
        assert restored.to_jsonable() == result.to_jsonable()

    def test_cohorts_partition_fleet(self, spec, calib):
        result = run_fleet(spec, 500, seed=8, calibration=calib)
        fleet = result.cohort("fleet")
        assert fleet.count == 500
        title_total = sum(result.cohort(f"title:{t}").count
                          for t in spec.titles)
        assert title_total == 500

    def test_stale_calibration_rejected(self, spec, calib):
        stale = FleetCalibration(fingerprint="f" * 16,
                                 entries=dict(calib.entries))
        with pytest.raises(FleetError):
            run_fleet(spec, 100, calibration=stale)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the kernel's per-process VmHWM")
    @pytest.mark.parametrize("make_spec,reference,ladder", [
        (smoke_spec, 50_000, (50_000, 500_000)),
        (default_population, 100_000, (100_000, 400_000, 1_000_000)),
    ], ids=["smoke", "default"])
    def test_streams_fast_in_bounded_memory(self, make_spec, reference,
                                            ladder):
        """>10k sessions/s, and peak RSS set by the chunk size, not the
        population: a 10x larger population grows it by <10%."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run(
            [sys.executable, "-c", _FLEET_BUDGET_SCRIPT,
             json.dumps(make_spec().to_jsonable()), str(reference),
             json.dumps(ladder)],
            env=env, capture_output=True, text=True, check=True).stdout
        budget = json.loads(out)
        assert budget["sessions_per_second"] > 10_000, (
            "the flow-level surrogate has stopped being a surrogate")
        first, last = budget["peaks"][0], budget["peaks"][-1]
        assert (last - first) / first < 0.10, (
            f"peak RSS grew {last / first - 1:.1%} across a "
            f"{ladder[-1] // ladder[0]}x population")

    def test_report_renders(self, spec, calib):
        result = run_fleet(spec, 300, seed=1, calibration=calib)
        report = result.report()
        assert "fleet" in report
        assert "title:V8" in report
        assert "p95" in report


def pinned_spec(frames: int = 32) -> PopulationSpec:
    """V1 and V8 on GAB, every session exactly ``frames`` frames long
    (zero duration spread) on an unconstrained link, calibrated at
    those frames and seed 7: the surrogate's per-title play energy is
    then structurally the exact pipeline's."""
    pinned = frames / SimulationConfig().video.fps
    return PopulationSpec(
        device_classes=(DeviceClass(name="ref", scheme="gab"),),
        regions=(RegionSpec(
            name="dense", cells=3, cell_capacity=10 * MBPS,
            bandwidth=(LognormalComponent(median=8 * MBPS, sigma=0.3),),
        ),),
        titles=("V1", "V8"),
        zipf_exponent=0.9,
        duration_median_seconds=pinned,
        duration_sigma=0.0,
        duration_min_seconds=pinned / 2,
        duration_max_seconds=pinned * 2,
        arrival_window_seconds=2.0,
        epoch_seconds=0.5,
        calib_frames=frames,
        calib_seed=7,
    )


class TestExactAgreement:
    """5,000 sessions of :func:`pinned_spec` at seed 7 against the exact
    pipeline."""

    @pytest.fixture(scope="class")
    def pinned(self) -> Tuple[PopulationSpec, FleetCalibration]:
        spec = pinned_spec()
        return spec, calibrate(spec)

    def test_title_energies_match_run_matrix(self, pinned):
        """The streamed per-title and fleet mean play energies match
        ``run_matrix``'s exact totals within 0.5 %."""
        spec, calibration = pinned
        device = spec.device_classes[0].to_simulation_config(
            SimulationConfig())
        matrix = run_matrix(videos=list(spec.titles), schemes=(GAB,),
                            n_frames=spec.calib_frames, seed=7,
                            config=device, processes=1)
        exact = {title: matrix[(title, GAB.name)].energy.total
                 for title in spec.titles}
        result = run_fleet(spec, 5000, seed=7, shards=3, contention=False,
                           calibration=calibration)
        weighted = 0.0
        for title in spec.titles:
            cohort = result.cohort(f"title:{title}")
            mean = cohort.moments["play_energy"].mean
            assert abs(mean - exact[title]) / exact[title] < 5e-3, title
            weighted += cohort.count * exact[title]
        weighted /= result.n_sessions
        fleet_mean = result.cohort("fleet").moments["play_energy"].mean
        assert abs(fleet_mean - weighted) / weighted < 5e-3

    def test_contention_dominates_private_links(self, pinned):
        """Shared cells price congestion: the contended fleet saturates
        some cell epochs and costs more energy and stall time than the
        same sessions on private links."""
        spec, calibration = pinned
        contended, private = (
            run_fleet(spec, 5000, seed=7, shards=2, contention=contention,
                      calibration=calibration)
            for contention in (True, False))
        assert contended.saturated_cell_epochs > 0
        shared, alone = contended.cohort("fleet"), private.cohort("fleet")
        assert (shared.moments["total_energy"].mean
                > alone.moments["total_energy"].mean)
        assert (shared.moments["stall_seconds"].mean
                > alone.moments["stall_seconds"].mean)


class TestFleetCLI:
    def test_end_to_end(self, spec, tmp_path, capsys):
        from repro.cli import main

        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec.to_jsonable(), handle)
        calib_path = str(tmp_path / "calib.json")
        out_path = str(tmp_path / "report.json")
        argv = ["fleet", "--spec", spec_path, "--sessions", "300",
                "--shards", "2", "--calibration", calib_path,
                "--json", out_path]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fleet" in out
        with open(out_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert FleetResult.from_jsonable(payload).n_sessions == 300
        # second run hits the calibration cache and agrees exactly
        assert main(argv) == 0
        with open(out_path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == payload
