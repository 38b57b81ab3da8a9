"""Tests for the generic cache substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    AccessResult,
    CacheStats,
    DirectMappedCache,
    SetAssociativeCache,
)
from repro.display.display_cache import simulate_direct_mapped
from repro.errors import CacheError


class TestCacheStats:
    def test_rates(self):
        stats = CacheStats()
        stats.record(AccessResult.HIT)
        stats.record(AccessResult.MISS)
        stats.record(AccessResult.MISS)
        assert stats.accesses == 3
        assert stats.hit_rate == pytest.approx(1 / 3)
        assert stats.miss_rate == pytest.approx(2 / 3)

    def test_empty_rates(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        assert stats.miss_rate == 0.0


class TestSetAssociativeCache:
    def test_requires_power_of_two_sets(self):
        with pytest.raises(CacheError):
            SetAssociativeCache(sets=3, ways=2)

    def test_hit_after_insert(self):
        cache = SetAssociativeCache(sets=4, ways=2)
        cache.insert(42, "value")
        result, value = cache.lookup(42)
        assert result.is_hit
        assert value == "value"

    def test_miss_on_absent(self):
        cache = SetAssociativeCache(sets=4, ways=2)
        result, value = cache.lookup(7)
        assert not result.is_hit
        assert value is None

    def test_lru_evicts_least_recent(self):
        cache = SetAssociativeCache(sets=1, ways=3)
        for key in (0, 1, 2):
            cache.insert(key, key)
        cache.lookup(0)  # recency now, oldest first: 1, 2, 0
        assert cache.insert(3, 3) == (1, 1)
        assert cache.insert(4, 4) == (2, 2)

    def test_lru_eviction_within_set(self):
        cache = SetAssociativeCache(sets=1, ways=2)
        cache.insert(1, "a")
        cache.insert(2, "b")
        cache.lookup(1)  # make key 1 most recent
        evicted = cache.insert(3, "c")
        assert evicted == (2, "b")
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_update_existing_value_in_place(self):
        cache = SetAssociativeCache(sets=2, ways=2)
        cache.insert(5, "old")
        assert cache.insert(5, "new") is None
        assert cache.peek(5) == "new"
        assert len(cache) == 1

    def test_evicted_key_reconstruction(self):
        cache = SetAssociativeCache(sets=4, ways=1)
        key = 0b10110  # set index 0b10, tag 0b101
        cache.insert(key, "x")
        evicted = cache.insert(key + 4 * 8, "y")  # same set, new tag
        assert evicted is not None
        assert evicted[0] == key

    def test_peek_does_not_touch_stats_or_recency(self):
        cache = SetAssociativeCache(sets=1, ways=2)
        cache.insert(1, "a")
        cache.insert(2, "b")
        cache.peek(1)  # would save key 1 if it updated recency
        cache.insert(3, "c")
        assert 1 not in cache  # LRU order unchanged by peek

    def test_items_roundtrip(self):
        cache = SetAssociativeCache(sets=8, ways=4)
        expected = {i * 17: i for i in range(20)}
        for key, value in expected.items():
            cache.insert(key, value)
        assert dict(cache.items()) == expected

    def test_capacity_and_len(self):
        cache = SetAssociativeCache(sets=4, ways=4)
        assert cache.capacity == 16
        for i in range(100):
            cache.insert(i, i)
        assert len(cache) == 16

    def test_access_inserts_on_miss(self):
        cache = SetAssociativeCache(sets=2, ways=1)
        assert cache.access(9) is AccessResult.MISS
        assert cache.access(9) is AccessResult.HIT

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_resident_set_never_exceeds_capacity(self, keys):
        cache = SetAssociativeCache(sets=4, ways=2)
        for key in keys:
            cache.access(key)
        assert len(cache) <= cache.capacity
        # Every most-recently-accessed key per set must be resident.
        last_per_set = {}
        for key in keys:
            last_per_set[key & 3] = key
        for key in last_per_set.values():
            assert key in cache


class TestDirectMappedCache:
    def test_from_bytes(self):
        cache = DirectMappedCache.from_bytes(16 * 1024, 64)
        assert cache.lines == 256

    def test_conflict_eviction(self):
        cache = DirectMappedCache(4)
        assert not cache.access(0).is_hit
        assert cache.access(0).is_hit
        assert not cache.access(4).is_hit  # same slot, different tag
        assert not cache.access(0).is_hit  # evicted

    def test_rejects_non_power_of_two(self):
        with pytest.raises(CacheError):
            DirectMappedCache(3)


class TestVectorizedDirectMapped:
    def _scalar_reference(self, keys, slots, state=None):
        tags = dict(state or {})
        hits = []
        for key in keys:
            slot = key & (slots - 1)
            hits.append(tags.get(slot) == key)
            tags[slot] = key
        return np.asarray(hits), tags

    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_model(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        hits, state = simulate_direct_mapped(keys, 16)
        expected_hits, expected_state = self._scalar_reference(keys, 16)
        assert (hits == expected_hits).all()
        assert state == expected_state

    def test_carries_state_across_windows(self):
        first = np.asarray([5, 21, 5], dtype=np.int64)
        hits1, state = simulate_direct_mapped(first, 16)
        # Keys 5 and 21 share slot 5 and keep evicting each other.
        assert list(hits1) == [False, False, False]
        assert state == {5: 5}
        hits2, _ = simulate_direct_mapped(
            np.asarray([5, 21], dtype=np.int64), 16, state)
        assert list(hits2) == [True, False]

    def test_empty_window(self):
        hits, state = simulate_direct_mapped(
            np.empty(0, dtype=np.int64), 8, {1: 9})
        assert len(hits) == 0
        assert state == {1: 9}
