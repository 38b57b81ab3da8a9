"""Shared fixtures for the pipeline speed benchmark.

The paper's tables and figures, its extension studies and the delivery
studies are not benchmarks: they are computed once into
``EXPERIMENTS.json`` by ``tools/make_experiments.py`` and asserted by
``tests/test_paper_ledger.py``.  The fault, thermal, fleet and shard
claims are tier-1 tests.  ``bench_speed.py`` times the pipeline under
``pytest-benchmark`` and prints its tables (capture is released so they
land in the bench log).

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from typing import Callable

import pytest

#: Seed used by every benchmark (results are deterministic).
BENCH_SEED = 7


@pytest.fixture
def emit(capsys) -> Callable[[str], None]:
    """Print a report table through pytest's capture."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)

    return _emit
