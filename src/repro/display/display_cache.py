"""The 16 KB direct-mapped display cache (paper Sec. 5.1).

Two implementations with identical semantics:

* :class:`~repro.cache.DirectMappedCache`, the scalar model, for
  incremental use and tests;
* :func:`simulate_direct_mapped`, a vectorized replay that exploits a
  property of direct-mapped caches: an access hits iff the *previous
  access to the same slot* carried the same tag.  Grouping the trace by
  slot makes the whole frame's hit mask a few numpy passes.

Equivalence of the two is asserted in tests.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


def simulate_direct_mapped(
    line_keys: np.ndarray,
    n_slots: int,
    initial_state: Dict[int, int] | None = None,
) -> Tuple[np.ndarray, Dict[int, int]]:
    """Replay ``line_keys`` through a direct-mapped cache, vectorized.

    Args:
        line_keys: line-granular keys in access order.
        n_slots: cache size in lines (power of two).
        initial_state: slot -> resident tag carried over from earlier
            windows (e.g. the previous frame).

    Returns:
        (hit mask aligned with ``line_keys``, final slot -> tag state).
    """
    line_keys = np.asarray(line_keys, dtype=np.int64)
    n = len(line_keys)
    hits = np.zeros(n, dtype=bool)
    if n == 0:
        return hits, dict(initial_state or {})

    state_array = np.full(n_slots, -1, dtype=np.int64)
    for slot, tag in (initial_state or {}).items():
        state_array[slot] = tag
    hits = simulate_direct_mapped_array(line_keys, n_slots, state_array)
    resident = np.flatnonzero(state_array >= 0)
    state = {int(s): int(state_array[s]) for s in resident}
    return hits, state


def simulate_direct_mapped_array(
    line_keys: np.ndarray,
    n_slots: int,
    state: np.ndarray,
) -> np.ndarray:
    """Direct-mapped replay against an array slot state, fully batched.

    ``state`` is the ``n_slots``-long slot -> resident tag array (-1 =
    empty), updated **in place** — the form the stateful read path
    carries between frames so run boundaries never drop to Python.
    Returns the hit mask aligned with ``line_keys``.
    """
    line_keys = np.asarray(line_keys, dtype=np.int64)
    n = len(line_keys)
    hits = np.zeros(n, dtype=bool)
    if n == 0:
        return hits

    slots = line_keys & (n_slots - 1)
    # Stable by slot, so each slot's run keeps access order; numpy
    # radix-sorts keys of 16 bits or fewer.
    order = np.argsort(slots.astype(np.uint16) if n_slots <= 1 << 16
                       else slots, kind="stable")
    sorted_slots = slots[order]
    sorted_keys = line_keys[order]

    same_slot = np.empty(n, dtype=bool)
    same_slot[0] = False
    same_slot[1:] = sorted_slots[1:] == sorted_slots[:-1]
    sorted_hits = same_slot.copy()
    sorted_hits[1:] &= sorted_keys[1:] == sorted_keys[:-1]

    # Each slot forms one contiguous run after the sort, so the run
    # starts (gather) and run ends (scatter) touch each slot once.
    run_starts = np.flatnonzero(~same_slot)
    sorted_hits[run_starts] = (
        state[sorted_slots[run_starts]] == sorted_keys[run_starts])
    run_ends = np.append(run_starts[1:] - 1, n - 1)
    state[sorted_slots[run_ends]] = sorted_keys[run_ends]

    hits[order] = sorted_hits
    return hits
