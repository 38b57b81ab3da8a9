"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import functools
import json
from typing import Any, Dict, List, Optional, Tuple
from unittest import mock

import numpy as np
import pytest

from repro.config import SimulationConfig, VideoConfig
from repro.core import pipeline
from repro.display import MachBuffer
from repro.fleet import population, surrogate
from repro.fleet.engine import METRICS, CohortAggregate
from repro.fleet.population import PopulationModel, PopulationSpec, SessionChunk
from repro.fleet.sketches import _INV_2_53, _MASK64, _splitmix64
from repro.memory import MemoryController
from repro.validation import RUN_SETS, paper_ledger
from repro.video import SyntheticVideo, workload

from .mach_oracle import ScalarWritebackEngine


class RecordMachBuffer(MachBuffer):
    """The MACH buffer served record by record, in scan order: the
    reference :meth:`MachBuffer.serve` must match."""

    def process_frame(self, digests: np.ndarray) -> Tuple[np.ndarray,
                                                          np.ndarray]:
        """Serve one frame's digest-indexed records in scan order.

        Returns (hit mask, unique missed digests).  Under the lazy
        policy, the first use of a non-resident digest misses and
        installs it, so its later occurrences in the same frame hit.
        """
        digests = np.asarray(digests, dtype=np.uint64)
        n = len(digests)
        if n == 0:
            return np.zeros(0, dtype=bool), np.empty(0, dtype=np.uint64)
        resident_array = np.sort(np.fromiter(
            self._resident.keys(), dtype=np.uint64,
            count=len(self._resident)))
        # Sort-based unique: the stable argsort makes order[starts] each
        # digest's first occurrence (what np.unique's return_index gives).
        order = np.argsort(digests, kind="stable")
        sorted_d = digests[order]
        is_start = np.empty(n, dtype=bool)
        is_start[0] = True
        is_start[1:] = sorted_d[1:] != sorted_d[:-1]
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.cumsum(is_start) - 1
        starts = np.flatnonzero(is_start)
        uniques = sorted_d[starts]
        first_index = order[starts]
        if len(resident_array):
            pos = np.minimum(
                np.searchsorted(resident_array, uniques),
                len(resident_array) - 1)
            resident_unique = resident_array[pos] == uniques
        else:
            resident_unique = np.zeros(len(uniques), dtype=bool)
        if self.policy == "eager":
            hits = resident_unique[inverse]
            missed = uniques[~resident_unique]
        else:
            is_first_use = np.arange(n) == first_index[inverse]
            hits = resident_unique[inverse] | ~is_first_use
            missed = uniques[~resident_unique]
            if len(missed):
                self.installed += len(missed)
                self._append(missed.tolist())
        self.hits += int(hits.sum())
        self.misses += int((~hits).sum())
        return hits, missed


def serve_records(buffer: MachBuffer,
                  records: Any) -> Tuple[np.ndarray, np.ndarray]:
    """One frame's digest records, in scan order, through
    :meth:`MachBuffer.serve`: returns (per-record hit mask, missed
    digests in ascending order), as the record-level reference does."""
    records = np.asarray(records, dtype=np.uint64)
    digests, first, inverse, counts = np.unique(
        records, return_index=True, return_inverse=True, return_counts=True)
    missed = buffer.serve(digests, counts.astype(np.int64))
    hits = ~missed[inverse]
    if buffer.policy == "lazy":
        hits |= np.arange(len(records)) != first[inverse]
    return hits, digests[missed]


def fold_chunk_masked(partial: Dict[str, CohortAggregate],
                      spec: PopulationSpec, chunk: SessionChunk,
                      metrics: Dict[str, np.ndarray]) -> None:
    """Every cohort folded through its own boolean mask with the
    one-stream sketch API: the reference
    :func:`repro.fleet.engine.fold_chunk` must match."""
    masks: List[Tuple[str, Optional[np.ndarray]]] = [("fleet", None)]
    for index, device in enumerate(spec.device_classes):
        masks.append((f"device:{device.name}", chunk.device == index))
    for index, region in enumerate(spec.regions):
        masks.append((f"region:{region.name}", chunk.region == index))
    for index, title in enumerate(spec.titles):
        masks.append((f"title:{title}", chunk.title == index))
    for key, mask in masks:
        if mask is not None and not mask.any():
            continue
        rows = slice(None) if mask is None else mask
        cohort = partial[key]
        for name in METRICS:
            cohort.moments[name].add_array(metrics[name][rows])
            if name in cohort.hists:
                cohort.hists[name].add_array(metrics[name][rows])
        cohort.sample.offer_array(chunk.uid[rows],
                                  metrics["total_energy"][rows])


def hash_u64_reference(seed: int, site: int,
                       indices: np.ndarray) -> np.ndarray:
    """splitmix64 of ``(seed, site, index)``, a fresh array per step:
    the reference :func:`repro.fleet.sketches.hash_u64_array` must
    match."""
    base = np.uint64(_splitmix64((seed ^ (site << 32)) & _MASK64))
    x = base ^ np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return x


def _u01_reference(seed: int, site: int, uids: np.ndarray) -> np.ndarray:
    bits = hash_u64_reference(seed, site, uids)
    return (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _normal_reference(seed: int, site_a: int, site_b: int,
                      uids: np.ndarray) -> np.ndarray:
    u1 = np.maximum(_u01_reference(seed, site_a, uids), population._U_FLOOR)
    u2 = _u01_reference(seed, site_b, uids)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(population._TWO_PI * u2)


def _categorical_reference(u: np.ndarray,
                           cumulative: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(cumulative, u, side="right")
    return np.clip(idx, 0, cumulative.size - 1).astype(np.int64)


def _cumulative_reference(weights: Tuple[float, ...]) -> np.ndarray:
    total = float(sum(weights))
    return np.cumsum(np.asarray(weights, dtype=np.float64)) / total


def draw_chunk_searchsorted(model: PopulationModel, start: int,
                            count: int) -> SessionChunk:
    """Sessions ``[start, start+count)`` drawn by ``searchsorted``
    categoricals and a masked loop over regions for the bandwidth
    mixture: the reference :meth:`PopulationModel.draw_chunk` must
    match column for column."""
    spec = model.spec
    seed = model.seed
    uids = np.arange(start, start + count, dtype=np.int64)
    ranks = np.arange(1, len(spec.titles) + 1, dtype=np.float64)
    zipf = ranks ** -spec.zipf_exponent
    cells = np.asarray([r.cells for r in spec.regions], dtype=np.int64)

    device = _categorical_reference(
        _u01_reference(seed, population._SITE_DEVICE, uids),
        _cumulative_reference(tuple(d.weight
                                    for d in spec.device_classes)))
    region = _categorical_reference(
        _u01_reference(seed, population._SITE_REGION, uids),
        _cumulative_reference(tuple(r.weight for r in spec.regions)))
    cell = np.floor(_u01_reference(seed, population._SITE_CELL, uids)
                    * cells[region]).astype(np.int64)
    title = _categorical_reference(
        _u01_reference(seed, population._SITE_TITLE, uids),
        np.cumsum(zipf) / zipf.sum())

    z_dur = _normal_reference(seed, population._SITE_DURATION_A,
                              population._SITE_DURATION_B, uids)
    duration = np.clip(
        spec.duration_median_seconds * np.exp(spec.duration_sigma * z_dur),
        spec.duration_min_seconds, spec.duration_max_seconds)

    u_comp = _u01_reference(seed, population._SITE_BW_COMPONENT, uids)
    z_bw = _normal_reference(seed, population._SITE_BW_A,
                             population._SITE_BW_B, uids)
    bandwidth = np.empty(count, dtype=np.float64)
    for r_idx, region_spec in enumerate(spec.regions):
        mask = region == r_idx
        if not mask.any():
            continue
        comp_cum = _cumulative_reference(
            tuple(c.weight for c in region_spec.bandwidth))
        comp = _categorical_reference(u_comp[mask], comp_cum)
        medians = np.asarray([c.median for c in region_spec.bandwidth])
        sigmas = np.asarray([c.sigma for c in region_spec.bandwidth])
        bandwidth[mask] = medians[comp] * np.exp(sigmas[comp] * z_bw[mask])

    start_s = (_u01_reference(seed, population._SITE_START, uids)
               * spec.arrival_window_seconds)
    return SessionChunk(uid=uids, device=device, region=region, cell=cell,
                        title=title, duration_seconds=duration,
                        bandwidth=bandwidth, start_seconds=start_s)


def rung_searchsorted(ladder: np.ndarray, fit: np.ndarray) -> np.ndarray:
    """The highest ``ladder`` rung at or below ``fit``, the bottom rung
    when none is: the reference for the rung pick in
    :func:`repro.fleet.engine._score_chunk`."""
    rung = np.searchsorted(ladder, fit, side="right") - 1
    return np.clip(rung, 0, ladder.size - 1)


def calibrate_serial(spec: PopulationSpec) -> surrogate.FleetCalibration:
    """Every (title, device class) pair played in turn in this process,
    each from freshly synthesised frames: the reference for the
    parallel :func:`repro.fleet.surrogate.calibrate`."""
    base = SimulationConfig()
    entries = {}
    for title in spec.titles:
        for d_idx, device in enumerate(spec.device_classes):
            entries[f"{device.name}|{title}"] = surrogate._calibrate_pair(
                spec, d_idx, title,
                surrogate._title_frames(spec, title, base), base)
    return surrogate.FleetCalibration(fingerprint=spec.fingerprint(),
                                      entries=entries)


def add_uniform_eager(log: pipeline._TrafficLog, agent: str,
                      rng: np.random.Generator, start: float, end: float,
                      addresses: np.ndarray, is_write: bool) -> None:
    """The chunk's times drawn from ``rng`` as it is logged: the
    reference for the deferred
    :meth:`repro.core.pipeline._TrafficLog.add_uniform`."""
    log.add(agent, pipeline._uniform_times(rng, start, end, len(addresses)),
            addresses, is_write)


@pytest.fixture(scope="session")
def eager_traffic_times():
    """The eager-draw oracle, as a context-manager factory: ``with
    eager_traffic_times(): simulate(...)`` logs every chunk's arrival
    times when the chunk is logged instead of deferring the draw."""
    return functools.partial(mock.patch.object, pipeline._TrafficLog,
                             "add_uniform", add_uniform_eager)


def logged_times(log: pipeline._TrafficLog, times: Any) -> np.ndarray:
    """A chunk's times: logged, or its deferred draw regenerated on a
    fresh generator from the saved PCG64 state word."""
    if isinstance(times, np.ndarray):
        return times
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": times.state, "inc": log._increment},
        "has_uint32": 0, "uinteger": 0}
    return pipeline._uniform_times(np.random.Generator(bit_generator),
                                   times.start, times.end, times.count)


def replay_whole_run(log: pipeline._TrafficLog,
                     memory: MemoryController) -> None:
    """Every logged access concatenated in log order, deferred draws
    materialised, and played through ``memory`` in one call: the
    reference for the windowed
    :meth:`repro.core.pipeline._TrafficLog.replay`."""
    if not log._times:
        return
    lengths = [len(chunk) for chunk in log._times]
    names = list(dict.fromkeys(log._agents))
    codes = [names.index(agent) for agent in log._agents]
    memory.process_window(
        np.concatenate([logged_times(log, times) for times in log._times]),
        np.concatenate(log._addresses),
        np.repeat(np.asarray(log._writes, dtype=bool), lengths),
        (names, np.repeat(np.asarray(codes, dtype=np.uint8), lengths)))
    log._times, log._addresses, log._writes, log._agents = [], [], [], []


@pytest.fixture(scope="session")
def whole_run_replay():
    """The whole-run replay oracle, as a context-manager factory:
    ``with whole_run_replay(): simulate(...)`` replays each run's DRAM
    traffic in one call instead of window by window."""
    return functools.partial(mock.patch.object, pipeline._TrafficLog,
                             "replay", replay_whole_run)


@pytest.fixture(scope="session")
def pixel_frames():
    """The pixel oracle, as a context-manager factory: ``with
    pixel_frames(): simulate(...)`` renders every synthesised frame's
    pixels, even for a scheme that reads none (Baseline, Batching,
    Racing, Race-to-Sleep), instead of playing the blank stream."""
    return functools.partial(mock.patch.object, pipeline, "_reads_pixels",
                             lambda scheme: True)


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


def _ledger_of(run_set: str) -> Dict[str, Any]:
    """The ledger of one claim-table run set, computed by the current
    code and round-tripped through JSON as ``EXPERIMENTS.json`` is."""
    frames, videos = RUN_SETS[run_set]
    return json.loads(json.dumps(paper_ledger(frames, videos)))


@pytest.fixture(scope="session")
def tiny_ledger() -> Dict[str, Any]:
    """The ledger of the tiny run set (2 videos, 8 frames)."""
    return _ledger_of("tiny")


@pytest.fixture(scope="session")
def validate_ledger() -> Dict[str, Any]:
    """The ledger ``repro validate`` checks at its default frames."""
    return _ledger_of("validate")
