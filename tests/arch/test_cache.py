"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import CacheAccess, CacheConfig, SetAssociativeCache
from repro.errors import ConfigurationError
from tests.arch.reference_engine import install_spans, set_lines


def small_cache(
    assoc: int = 2, sets: int = 4, first_touch: bool = False
) -> SetAssociativeCache:
    return SetAssociativeCache(
        CacheConfig("test", size=assoc * sets * 64, associativity=assoc),
        first_touch=first_touch,
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

    def test_size_must_divide_evenly(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", size=1000, associativity=3)


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

    def test_install_line_touches_no_demand_stats_even_when_evicting(self):
        cache = small_cache(assoc=1, sets=1)
        cache.access(0 * 64, is_write=True)
        stats_before = vars(cache.stats).copy()
        cache.install_line(1)  # evicts the dirty demand line silently
        assert vars(cache.stats) == stats_before
        assert cache.line_resident(1)
        assert not cache.line_resident(0)

    def test_fill_equals_per_line_installs(self):
        fill_cache = small_cache(assoc=2, sets=4)
        line_cache = small_cache(assoc=2, sets=4)
        fill_cache.fill([(3, 20)])
        install_spans(line_cache, [(3, 20)])
        assert set_lines(fill_cache) == set_lines(line_cache)
        assert fill_cache.stats.accesses == 0


def _lay_out(gaps_and_counts) -> list[tuple[int, int]]:
    spans, first = [], 0
    for gap, count in gaps_and_counts:
        spans.append((first + gap, count))
        first += gap + count
    return spans


def disjoint_spans(max_gap: int, max_count: int, max_size: int):
    """Disjoint ``(first_line, count)`` spans, in any install order (the
    pre-warm protocol's input)."""
    return (
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=max_gap),
                st.integers(min_value=1, max_value=max_count),
            ),
            max_size=max_size,
        )
        .map(_lay_out)
        .flatmap(st.permutations)
    )


@settings(max_examples=200, deadline=None)
@given(
    geometry=st.sampled_from([(1, 1), (2, 4), (4, 3), (8, 64), (16, 96)]),
    spans=disjoint_spans(max_gap=4_000, max_count=8_000, max_size=5),
    first_touch=st.booleans(),
)
def test_fill_matches_per_line_installs(geometry, spans, first_touch):
    """``fill`` ends in the per-line state — keys, LRU order and dirty
    bits — for spans shorter than the set count, up to and past 4x the
    capacity, on mask- and modulo-indexed geometries, written in one pass
    or built on first touch."""
    assoc, sets = geometry
    fill_cache = small_cache(assoc=assoc, sets=sets, first_touch=first_touch)
    line_cache = small_cache(assoc=assoc, sets=sets)
    fill_cache.fill(spans)
    install_spans(line_cache, spans)
    assert set_lines(fill_cache) == set_lines(line_cache)


@pytest.mark.parametrize("first_touch", [False, True])
def test_fill_refuses_a_used_cache_and_overlapping_spans(first_touch):
    """``fill`` only pre-warms: an empty cache, from disjoint spans.  Any
    other input raises and leaves the cache as it was."""
    cache = small_cache(assoc=2, sets=4, first_touch=first_touch)
    with pytest.raises(ConfigurationError, match="overlap"):
        cache.fill([(0, 8), (4, 8)])
    assert cache.resident_lines == 0
    cache.access(5 * 64, is_write=True)
    with pytest.raises(ConfigurationError, match="empty"):
        cache.fill([(8, 4)])
    assert [line for line in range(16) if cache.line_resident(line)] == [5]
    cache.flush()
    cache.fill([(8, 4)])
    with pytest.raises(ConfigurationError, match="empty"):
        cache.fill([(0, 4)])  # the recorded or written spans count as used


@pytest.mark.parametrize("first_touch", [False, True])
def test_fill_handles_more_than_255_ways(first_touch):
    wide = small_cache(assoc=256, sets=2, first_touch=first_touch)
    wide.fill([(0, 600)])
    line_cache = small_cache(assoc=256, sets=2)
    install_spans(line_cache, [(0, 600)])
    assert set_lines(wide) == set_lines(line_cache)
    assert wide.resident_lines == 512


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
