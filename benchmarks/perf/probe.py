"""Fixed reference probe: the yardstick every host time is scaled by.

The host this benchmark runs on shares its cores with other tenants,
so the same code takes a different wall time from one minute to the
next.  The probe is a fixed amount of work with the simulator's own
mix — a Python loop of small numpy calls and dictionary updates, then a
large stable argsort and a few streaming array passes — and it imports
nothing from ``repro``, so no change to the simulator can move it.
Timing it next to every repetition and every set-up tells how fast the
host is right then; a time ``t`` measured beside a probe of ``probe_s`` seconds is
reported as ``t * REF_PROBE_S / probe_s``: the seconds it would have
taken on a host that runs the probe in ``REF_PROBE_S``.
"""

from __future__ import annotations

import time

import numpy as np

_LOOP_STEPS = 8000
_SORT_KEYS = 100_000


def _workspace() -> tuple:
    rng = np.random.default_rng(20171014)
    blocks = rng.integers(0, 256, size=(4096, 64), dtype=np.uint8)
    keys = rng.integers(0, 1 << 40, size=_SORT_KEYS, dtype=np.int64)
    return blocks, keys


def probe_once() -> float:
    """Seconds the fixed probe work takes on this host, now."""
    blocks, keys = _workspace()
    start = time.perf_counter()
    table: dict = {}
    for step in range(_LOOP_STEPS):
        total = int(blocks[step & 4095, ::7].sum())
        table[total & 1023] = table.get(total & 1023, 0) + 1
    order = np.argsort(keys, kind="stable")
    diffs = np.abs(np.diff(blocks.astype(np.int16), axis=1)).sum()
    running = np.cumsum(keys & 0xFF)[-1]
    elapsed = time.perf_counter() - start
    if len(table) == 0 or order.size != _SORT_KEYS or diffs < 0 or running < 0:
        raise RuntimeError("probe work produced an impossible result")
    return elapsed


def probe_median() -> float:
    """Median of three back-to-back probes (seconds)."""
    return sorted(probe_once() for _ in range(3))[1]


def to_ref(seconds: float, probe_s: float, ref_probe_s: float) -> float:
    """Scale a host time to the reference host speed."""
    if probe_s <= 0 or ref_probe_s <= 0:
        raise ValueError("probe times must be positive")
    return seconds * ref_probe_s / probe_s
