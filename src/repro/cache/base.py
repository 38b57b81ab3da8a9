"""Shared cache primitives: access results and hit/miss statistics."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class AccessResult(Enum):
    """Outcome of a cache access."""

    HIT = "hit"
    MISS = "miss"

    @property
    def is_hit(self) -> bool:
        return self is AccessResult.HIT


@dataclass
class CacheStats:
    """Running hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0

    def record(self, result: AccessResult) -> None:
        if result.is_hit:
            self.hits += 1
        else:
            self.misses += 1

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0
