"""The DC-side MACH buffer (paper Sec. 5.1, Fig. 10b).

When a frame finishes decoding its MACH is dumped to memory; the DC
uses those dumps to serve *digest*-indexed block records without
re-reading the blocks from the frame buffers.  The buffer holds up to
``capacity`` digest-tagged blocks (the paper picks 2 K entries = 96 KB)
and evicts oldest-first when over capacity — the knob Fig. 12b sweeps.

Two fill policies:

* **lazy** (default) — a digest is fetched into the buffer on first
  use; the miss costs the DC one dump-translation read plus the block
  fetch.  Subsequent uses (same frame or later frames) hit.
* **eager** — each frame's whole dump is prefetched before the scan,
  as the paper describes, in the dump's ascending digest order; every
  dumped entry costs one block fetch up front and digest lookups then
  always hit while resident.  A dump larger than the buffer keeps its
  highest digests.

The display benchmarks run lazy and the tests exercise both; lazy is
the default because at the scaled simulation resolution an eager prefetch
of a full dump is disproportionately large relative to a frame (see
DESIGN.md section 2 on metadata scale effects).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

import numpy as np

from ..errors import ConfigError


class MachBuffer:
    """Digest-indexed block store with FIFO capacity eviction."""

    def __init__(self, capacity_entries: int, policy: str = "lazy") -> None:
        if capacity_entries < 1:
            raise ConfigError("MACH buffer needs at least one entry")
        if policy not in ("lazy", "eager"):
            raise ConfigError(f"unknown fill policy {policy!r}")
        self.capacity = capacity_entries
        self.policy = policy
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        self._sorted: np.ndarray | None = None
        self.hits = 0
        self.misses = 0
        self.installed = 0
        self.evicted = 0

    # -- filling -----------------------------------------------------------

    def install(self, digests: np.ndarray) -> int:
        """Insert digests (deduplicated); returns how many were new.

        Every given digest, resident or not, becomes newest in the
        order of its last occurrence in ``digests``.
        """
        keys = np.asarray(digests, dtype=np.uint64)
        _, last_from_end = np.unique(keys[::-1], return_index=True)
        keys = keys[np.sort(len(keys) - 1 - last_from_end)].tolist()
        resident = self._resident
        moved = resident.keys() & keys
        for key in moved:
            del resident[key]
        resident.update(dict.fromkeys(keys))
        new = len(keys) - len(moved)
        self.installed += new
        self._evict_over_capacity()
        return new

    def _install_new(self, digests: np.ndarray) -> None:
        """Bulk insert of digests known to be absent, in array order."""
        self._resident.update(dict.fromkeys(digests.tolist()))
        self.installed += len(digests)
        self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        self._sorted = None
        while len(self._resident) > self.capacity:
            self._resident.popitem(last=False)
            self.evicted += 1

    def prefetch_dump(self, digests: np.ndarray) -> int:
        """Eager policy: load one frame's dump; returns entries fetched."""
        return self.install(digests)

    # -- lookups ------------------------------------------------------------

    def process_frame(self, digests: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Serve one frame's digest-indexed records in scan order.

        Returns (hit mask, unique missed digests).  Under the lazy
        policy, the first use of a non-resident digest misses and
        installs it, so its later occurrences in the same frame hit —
        which the vectorized form computes without a Python loop over
        every record.
        """
        digests = np.asarray(digests, dtype=np.uint64)
        n = len(digests)
        if n == 0:
            return np.zeros(0, dtype=bool), np.empty(0, dtype=np.uint64)
        resident_array = self._sorted
        if resident_array is None:
            resident_array = np.sort(np.fromiter(
                self._resident.keys(), dtype=np.uint64,
                count=len(self._resident)))
            self._sorted = resident_array
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
                self._install_new(missed)
        self.hits += int(hits.sum())
        self.misses += int((~hits).sum())
        return hits, missed

    # -- metrics -------------------------------------------------------------

    @property
    def resident_entries(self) -> int:
        return len(self._resident)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
