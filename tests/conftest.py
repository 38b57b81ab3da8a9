"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Optional, Tuple
from unittest import mock

import numpy as np
import pytest

from repro.config import SimulationConfig, VideoConfig
from repro.core import pipeline
from repro.core.writeback import WritebackEngine
from repro.display import MachBuffer
from repro.fleet.engine import METRICS, CohortAggregate
from repro.fleet.population import PopulationSpec, SessionChunk
from repro.video import SyntheticVideo, workload


class ScalarWritebackEngine(WritebackEngine):
    """The write engine with the batched kernel off: every frame takes
    the scalar per-block walk, the reference the kernel must match."""

    def _process_mach(self, frame: Any, slot_base: int) -> Any:
        tags, aux, dcc_sizes = self._content_features(frame.blocks)
        return self._process_mach_scalar(frame, slot_base, tags, aux,
                                         dcc_sizes)


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
