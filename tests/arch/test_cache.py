"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import CacheAccess, CacheConfig, SetAssociativeCache
from repro.errors import ConfigurationError


def small_cache(assoc: int = 2, sets: int = 4, line: int = 64) -> SetAssociativeCache:
    return SetAssociativeCache(
        CacheConfig("test", size=assoc * sets * line, associativity=assoc, line_size=line)
    )


class TestConfig:
    def test_table_iii_geometries_are_valid(self):
        SetAssociativeCache(CacheConfig("L1D", 32 * 1024, 8))
        SetAssociativeCache(CacheConfig("L1I", 32 * 1024, 4))
        SetAssociativeCache(CacheConfig("L2", 256 * 1024, 8))
        SetAssociativeCache(CacheConfig("L3", 12 * 1024 * 1024, 16))

    def test_l3_has_non_power_of_two_sets(self):
        config = CacheConfig("L3", 12 * 1024 * 1024, 16)
        assert config.num_sets == 12288

    def test_invalid_dimensions_raise(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", size=0, associativity=4)
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", size=1024, associativity=0)
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", size=1000, associativity=4, line_size=60)

    def test_size_must_divide_evenly(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", size=1000, associativity=3, line_size=64)


class TestAccess:
    def test_first_access_misses_then_hits(self):
        cache = small_cache()
        assert cache.access(0x1000).hit is False
        assert cache.access(0x1000).hit is True
        assert cache.access(0x1008).hit is True  # same line

    def test_different_lines_are_independent(self):
        cache = small_cache()
        cache.access(0x0)
        assert cache.access(0x40).hit is False

    def test_lru_eviction_order(self):
        cache = small_cache(assoc=2, sets=1)
        cache.access(0 * 64)
        cache.access(1 * 64)
        cache.access(0 * 64)  # 0 is now MRU
        result = cache.access(2 * 64)  # evicts 1 (LRU)
        assert result.evicted_line == 1
        assert cache.access(0 * 64).hit is True
        assert cache.access(1 * 64).hit is False

    def test_dirty_eviction_reports_writeback(self):
        cache = small_cache(assoc=1, sets=1)
        cache.access(0, is_write=True)
        result = cache.access(64)
        assert result.writeback is True
        assert cache.stats.writebacks == 1

    def test_clean_eviction_has_no_writeback(self):
        cache = small_cache(assoc=1, sets=1)
        cache.access(0)
        result = cache.access(64)
        assert result.writeback is False

    def test_write_hit_marks_dirty(self):
        cache = small_cache(assoc=1, sets=1)
        cache.access(0)
        cache.access(0, is_write=True)
        assert cache.is_dirty(0)

    def test_stats_accumulate(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        cache.access(64)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.accesses == 3
        assert cache.stats.miss_rate == pytest.approx(2 / 3)


class TestCoherenceSurface:
    def test_invalidate_removes_line(self):
        cache = small_cache()
        cache.access(0, is_write=True)
        line = cache.line_address(0)
        assert cache.invalidate_line(line) is True  # was dirty
        assert cache.access(0).hit is False

    def test_invalidate_absent_line_is_false(self):
        cache = small_cache()
        assert cache.invalidate_line(99) is False

    def test_set_dirty_on_resident_line(self):
        cache = small_cache()
        cache.access(0)
        line = cache.line_address(0)
        assert cache.set_dirty(line) is True
        assert cache.is_dirty(line)

    def test_set_dirty_on_absent_line(self):
        cache = small_cache()
        assert cache.set_dirty(12345) is False

    def test_install_line_does_not_touch_demand_stats(self):
        cache = small_cache()
        cache.install_line(5)
        assert cache.stats.accesses == 0
        assert cache.line_resident(5)

    def test_flush_empties_cache(self):
        cache = small_cache()
        cache.access(0)
        cache.flush()
        assert cache.resident_lines == 0
        assert cache.access(0).hit is False


class TestPackedProtocol:
    """Eviction, write-back and silent-install cases of ``access()``."""

    def test_eviction_reports_victim_line(self):
        cache = small_cache(assoc=1, sets=1)
        cache.access(0 * 64, True)  # dirty line 0
        result = cache.access(1 * 64)
        # Victim line 0 is reported as 0, not confused with "no victim".
        assert result == CacheAccess(
            hit=False, line_addr=1, evicted_line=0, writeback=True
        )

    def test_lru_order_under_mixed_hit_and_write(self):
        # A write hit refreshes recency exactly like a read hit does.
        cache = small_cache(assoc=2, sets=1)
        cache.access(0 * 64)
        cache.access(1 * 64, is_write=True)
        cache.access(0 * 64, is_write=True)  # 0 -> MRU (write hit)
        result = cache.access(2 * 64)
        assert result.evicted_line == 1
        assert result.writeback is True  # victim 1 was dirtied on fill
        assert cache.is_dirty(0)

    def test_eviction_and_writeback_accounting(self):
        cache = small_cache(assoc=1, sets=1)
        cache.access(0 * 64, is_write=True)
        cache.access(1 * 64)  # evicts dirty 0 -> writeback
        cache.access(2 * 64)  # evicts clean 1 -> no writeback
        assert cache.stats.evictions == 2
        assert cache.stats.writebacks == 1
        assert cache.stats.misses == 3
        assert cache.stats.hits == 0

    def test_write_through_config_never_writes_back(self):
        cache = SetAssociativeCache(
            CacheConfig("wt", size=128, associativity=1, line_size=64, write_back=False)
        )
        cache.access(0, is_write=True)
        result = cache.access(128)  # same set: evicts the written line 0
        assert result.evicted_line == 0
        assert result.writeback is False
        assert cache.stats.writebacks == 0

    def test_install_line_touches_no_demand_stats_even_when_evicting(self):
        cache = small_cache(assoc=1, sets=1)
        cache.access(0 * 64, is_write=True)
        stats_before = vars(cache.stats).copy()
        cache.install_line(1)  # evicts the dirty demand line silently
        assert vars(cache.stats) == stats_before
        assert cache.line_resident(1)
        assert not cache.line_resident(0)

    def test_install_span_equals_per_line_installs(self):
        span_cache = small_cache(assoc=2, sets=4)
        line_cache = small_cache(assoc=2, sets=4)
        span_cache.install_span(3, 20)
        for offset in range(19, -1, -1):
            line_cache.install_line(3 + offset)
        assert span_cache._sets == line_cache._sets
        assert span_cache.stats.accesses == 0


@settings(max_examples=50, deadline=None)
@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300
    ),
    writes=st.lists(st.booleans(), min_size=1, max_size=300),
)
def test_capacity_invariant(addresses, writes):
    """The cache never holds more lines than its capacity, and an access
    immediately followed by the same access always hits."""
    cache = small_cache(assoc=2, sets=4)
    capacity = 2 * 4
    for addr, write in zip(addresses, writes):
        cache.access(addr, is_write=write)
        assert cache.resident_lines <= capacity
        assert cache.access(addr).hit is True
