"""Shared fixtures for the benchmark harness.

The paper's own tables and figures are not benchmarks: they are
computed once into ``EXPERIMENTS.json`` by
``tools/make_experiments.py`` and asserted by
``tests/test_paper_ledger.py``.  The ``bench_*`` modules here cover the
extensions, fault resilience, thermal throttling, delivery, the fleet,
shard supervision and pipeline speed: each runs its simulations under
``pytest-benchmark`` and prints its tables (capture is released so
they land in the bench log).

Run with::

    pytest benchmarks/ --benchmark-only

``BENCH_FRAMES`` bounds the per-video frame count so the full suite
finishes in minutes; raise it for higher-fidelity numbers.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Tuple

import pytest

from repro import simulate, workload
from repro.config import SchemeConfig, SimulationConfig
from repro.core.results import RunResult

#: Frames simulated per (video, scheme) in benchmark runs.
BENCH_FRAMES = int(os.environ.get("BENCH_FRAMES", "96"))

#: Seed used by every benchmark (results are deterministic).
BENCH_SEED = 7

_RESULT_CACHE: Dict[Tuple, RunResult] = {}


def cached_run(video_key: str, scheme: SchemeConfig,
               n_frames: int = None, **kwargs) -> RunResult:
    """Memoized simulate() so benches can share each other's runs."""
    frames = n_frames if n_frames is not None else BENCH_FRAMES
    key = (video_key, scheme.name, frames, tuple(sorted(kwargs.items())))
    if key not in _RESULT_CACHE:
        _RESULT_CACHE[key] = simulate(
            workload(video_key), scheme, n_frames=frames, seed=BENCH_SEED,
            **kwargs)
    return _RESULT_CACHE[key]


@pytest.fixture(scope="session")
def config() -> SimulationConfig:
    return SimulationConfig()


@pytest.fixture
def emit(capsys) -> Callable[[str], None]:
    """Print a report table through pytest's capture."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)

    return _emit
