"""Set-associative LRU key-value cache.

Used two ways in this reproduction:

* as the conventional VD data cache (keys are line addresses);
* as one MACH (keys are digests, values are frame-buffer pointers).

Keys are arbitrary ints; the set index is taken from the key's low
bits, matching the paper's choice of indexing MACH with the low 6 bits
of the CRC32 digest (Sec. 4.4).  Each set is a recency-ordered mapping,
least recently used first, so a full set evicts its first entry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterator, List, Optional, Tuple

from ..errors import CacheError
from .base import AccessResult, CacheStats


class SetAssociativeCache:
    """An LRU set-associative cache of ``sets * ways`` entries.

    The low ``log2(sets)`` bits of the key select the set.  Values ride
    along with keys (this is a key-value store, as MACH needs, not just
    a presence structure).
    """

    def __init__(self, sets: int, ways: int) -> None:
        if sets <= 0 or sets & (sets - 1):
            raise CacheError(f"set count must be a positive power of two: {sets}")
        if ways <= 0:
            raise CacheError(f"way count must be positive: {ways}")
        self.sets = sets
        self.ways = ways
        self._index_mask = sets - 1
        self._sets: List["OrderedDict[int, Any]"] = [
            OrderedDict() for _ in range(sets)]
        self.stats = CacheStats()

    # -- core operations ------------------------------------------------

    def _set(self, key: int) -> "OrderedDict[int, Any]":
        return self._sets[key & self._index_mask]

    def lookup(self, key: int) -> Tuple[AccessResult, Any]:
        """Probe for ``key``; returns (result, value-or-None)."""
        cache_set = self._set(key)
        if key in cache_set:
            cache_set.move_to_end(key)
            self.stats.record(AccessResult.HIT)
            return AccessResult.HIT, cache_set[key]
        self.stats.record(AccessResult.MISS)
        return AccessResult.MISS, None

    def peek(self, key: int) -> Any:
        """Non-intrusive probe: no stats, no recency update."""
        return self._set(key).get(key)

    def insert(self, key: int, value: Any) -> Optional[Tuple[int, Any]]:
        """Install ``key -> value`` as most recent; returns the evicted
        (key, value) if any.

        Inserting an existing key updates its value in place.
        """
        cache_set = self._set(key)
        evicted = None
        if key in cache_set:
            cache_set.move_to_end(key)
        else:
            if len(cache_set) == self.ways:
                evicted = cache_set.popitem(last=False)
                self.stats.evictions += 1
            self.stats.insertions += 1
        cache_set[key] = value
        return evicted

    def access(self, key: int, value: Any = True) -> AccessResult:
        """lookup-then-insert-on-miss, the common cache idiom."""
        result, _ = self.lookup(key)
        if not result.is_hit:
            self.insert(key, value)
        return result

    # -- introspection ---------------------------------------------------

    def __contains__(self, key: int) -> bool:
        return key in self._set(key)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def capacity(self) -> int:
        return self.sets * self.ways

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Iterate (key, value) over all resident entries."""
        for cache_set in self._sets:
            yield from cache_set.items()
