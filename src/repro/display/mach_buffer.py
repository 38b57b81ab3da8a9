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
from typing import List

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
        new = len(keys) - len(moved)
        self.installed += new
        self._append(keys)
        return new

    def _append(self, keys: List[int]) -> None:
        """Append absent ``keys`` as newest, in list order, then evict
        oldest-first down to capacity."""
        resident = self._resident
        resident.update(dict.fromkeys(keys))
        while len(resident) > self.capacity:
            resident.popitem(last=False)
            self.evicted += 1

    def prefetch_dump(self, digests: np.ndarray) -> int:
        """Eager policy: load one frame's dump; returns entries fetched."""
        return self.install(digests)

    # -- lookups ------------------------------------------------------------

    def serve(self, digests: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Serve one frame's digest-indexed records, grouped by digest.

        ``digests`` are the frame's distinct digests in ascending order
        and ``counts`` their record counts.  Returns the mask of the
        digests that were not resident.  Under the lazy policy the
        first record of such a digest misses and installs it (in
        ascending digest order), so its later records hit; under the
        eager policy every record of it misses.
        """
        keys = digests.tolist()
        resident = self._resident
        missed = np.fromiter((key not in resident for key in keys),
                             dtype=bool, count=len(keys))
        if self.policy == "eager":
            miss_records = int(counts[missed].sum())
        else:
            miss_records = int(np.count_nonzero(missed))
            if miss_records:
                self.installed += miss_records
                self._append(
                    [key for key, miss in zip(keys, missed) if miss])
        self.misses += miss_records
        self.hits += int(counts.sum()) - miss_records
        return missed

    # -- metrics -------------------------------------------------------------

    @property
    def resident_entries(self) -> int:
        return len(self._resident)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
