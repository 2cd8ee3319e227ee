"""The keyed-and-bounded LRU cache behind the process-wide caches.

The cap must *hold* -- the whole point of replacing the unbounded
dicts was that thousand-scenario sweeps over generated workloads
cannot grow memory monotonically -- and recency must be LRU, so the
hot spec of a batch sweep survives eviction pressure.
"""

from __future__ import annotations

import pytest

from repro.sim.cache import BoundedCache


class TestBoundedCache:
    def test_cap_holds_under_pressure(self):
        cache: BoundedCache[int, int] = BoundedCache(8)
        for key in range(100):
            cache.put(key, key * key)
            assert len(cache) <= 8
        assert len(cache) == 8
        # The survivors are exactly the most recent inserts.
        assert sorted(cache) == list(range(92, 100))
        assert cache.get(0) is None
        assert cache.get(99) == 99 * 99

    def test_hit_refreshes_recency(self):
        cache: BoundedCache[str, int] = BoundedCache(2)
        cache.put("old", 1)
        cache.put("new", 2)
        assert cache.get("old") == 1  # refresh: "new" is now LRU
        cache.put("newest", 3)
        assert "old" in cache
        assert "new" not in cache

    def test_overwrite_refreshes_without_growth(self):
        cache: BoundedCache[str, int] = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache
        assert cache.get("a") == 10

    def test_clear_and_default(self):
        cache: BoundedCache[str, int] = BoundedCache(4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a", default=-1) == -1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            BoundedCache(0)


class TestWiredCaches:
    """Every process-wide simulation cache sits on the bounded LRU."""

    def test_testset_cache_is_bounded(self):
        from repro.sim import testsets

        assert isinstance(testsets._CACHE, BoundedCache)
        assert testsets._CACHE.capacity == testsets.MAX_CACHED

    def test_kernel_program_cache_is_bounded(self):
        from repro.sim import kernel

        assert isinstance(kernel._SCAN_PROGRAMS, BoundedCache)

    def test_dictionary_cache_is_bounded(self):
        from repro.diagnose import engine

        assert isinstance(engine._DICTIONARIES, BoundedCache)

    def test_batch_program_cache_is_bounded(self):
        from repro.sim import batch

        assert isinstance(batch._BATCH_PROGRAMS, BoundedCache)
        assert (batch._BATCH_PROGRAMS.capacity
                == batch.MAX_CACHED_BATCH_PROGRAMS)
