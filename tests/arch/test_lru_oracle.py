"""The cache and TLB sets against an ``OrderedDict`` model of LRU.

:class:`SetAssociativeCache` and :class:`Tlb` keep each set as a plain
``dict`` whose insertion order is the LRU order.  The models below are
the plain reading of the same replacement policy over
``collections.OrderedDict`` (``move_to_end`` on a hit, ``popitem(last=
False)`` for the victim), kept here so the semantics are pinned
independently of the shipped set type.  Random operation lists run
through both, and every set's lines in LRU order (a cache set keys each
line by its tag, mapped back by ``set_lines``), the statistics and
every return value must agree after each operation.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import CacheAccess, CacheConfig, CacheStats, SetAssociativeCache
from repro.arch.tlb import Tlb, TlbConfig
from tests.arch.reference_engine import set_lines
from tests.arch.test_cache import disjoint_spans


class LruCacheModel:
    """A write-back, write-allocate LRU cache over one ``OrderedDict``
    per set."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.assoc = assoc
        self.stats = CacheStats()

    def _set(self, line: int) -> OrderedDict:
        return self.sets[line % len(self.sets)]

    def access(self, line: int, is_write: bool) -> CacheAccess:
        cache_set = self._set(line)
        if line in cache_set:
            self.stats.hits += 1
            cache_set.move_to_end(line)
            if is_write:
                cache_set[line] = True
            return CacheAccess(True, line)
        self.stats.misses += 1
        evicted, writeback = None, False
        if len(cache_set) >= self.assoc:
            evicted, dirty = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
                writeback = True
        cache_set[line] = is_write
        return CacheAccess(False, line, evicted, writeback)

    def install_line(self, line: int) -> None:
        cache_set = self._set(line)
        if line in cache_set:
            cache_set.move_to_end(line)
            return
        if len(cache_set) >= self.assoc:
            cache_set.popitem(last=False)
        cache_set[line] = False

    def fill(self, spans) -> None:
        for first, count in spans:
            for line in range(first + count - 1, first - 1, -1):
                self.install_line(line)

    def invalidate_line(self, line: int) -> bool:
        cache_set = self._set(line)
        if line not in cache_set:
            return False
        self.stats.invalidations += 1
        return cache_set.pop(line)

    def set_dirty(self, line: int) -> bool:
        cache_set = self._set(line)
        if line in cache_set:
            cache_set[line] = True
            return True
        return False

    def flush(self) -> None:
        for cache_set in self.sets:
            cache_set.clear()


class LruTlbModel:
    """An LRU TLB level over one ``OrderedDict`` per set."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.assoc = assoc

    def _set(self, page: int) -> OrderedDict:
        return self.sets[page % len(self.sets)]

    def lookup(self, page: int) -> bool:
        tlb_set = self._set(page)
        if page in tlb_set:
            tlb_set.move_to_end(page)
            return True
        return False

    def fill(self, page: int) -> None:
        tlb_set = self._set(page)
        if page in tlb_set:
            tlb_set.move_to_end(page)
            return
        if len(tlb_set) >= self.assoc:
            tlb_set.popitem(last=False)
        tlb_set[page] = None

    def flush(self) -> None:
        for tlb_set in self.sets:
            tlb_set.clear()


def ordered_items(sets) -> list:
    """Every set's items in LRU order (least recently used first)."""
    return [list(one_set.items()) for one_set in sets]


def keys(assoc: int):
    """A key as ``(tag, set)``: the set index is taken modulo the set
    count and kept small, and a set sees only a few more tags than it
    has ways, so hits, hits on older keys and evictions are all common."""
    return st.tuples(st.integers(0, assoc + 2), st.integers(0, 1))


def cache_ops(assoc: int):
    key = keys(assoc)
    return st.lists(
        st.one_of(
            st.tuples(st.just("read"), key),
            st.tuples(st.just("write"), key),
            st.tuples(st.just("install_line"), key),
            st.tuples(st.just("invalidate_line"), key),
            st.tuples(st.just("set_dirty"), key),
            st.tuples(st.just("probe"), key),
            st.tuples(
                st.just("fill"),
                disjoint_spans(max_gap=1_000, max_count=2_000, max_size=3),
            ),
            st.tuples(st.just("flush"), st.none()),
        ),
        min_size=10,
        max_size=60,
    )


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from([(1, 1), (4, 2), (3, 4), (96, 16)]).flatmap(
        lambda geometry: st.tuples(st.just(geometry), cache_ops(geometry[1]))
    ),
    first_touch=st.booleans(),
)
def test_cache_matches_ordered_dict_model(case, first_touch):
    """Mask- and modulo-indexed geometries (sets x ways), eager or
    first-touch sets, from an empty cache through
    any mix of demand accesses, prefetch installs, fills (drawn only on an
    empty cache that has not been filled since its last flush: pre-warm's
    precondition), invalidations, write-back landings and flushes."""
    (num_sets, assoc), ops = case
    cache = SetAssociativeCache(
        CacheConfig("oracle", num_sets * assoc * 64, assoc),
        first_touch=first_touch,
    )
    model = LruCacheModel(num_sets, assoc)
    filled = False
    for op, arg in ops:
        if op == "fill":
            if filled or any(model.sets):
                continue
            cache.fill(arg)
            model.fill(arg)
            filled = True
        elif op == "flush":
            cache.flush()
            model.flush()
            filled = False
        else:
            tag, index = arg
            line = tag * num_sets + index % num_sets
            if op in ("read", "write"):
                is_write = op == "write"
                assert cache.access(line << 6 | tag % 64, is_write) == model.access(
                    line, is_write
                )
            elif op == "install_line":
                cache.install_line(line)
                model.install_line(line)
            elif op == "invalidate_line":
                assert cache.invalidate_line(line) == model.invalidate_line(line)
            elif op == "set_dirty":
                assert cache.set_dirty(line) == model.set_dirty(line)
            else:
                model_set = model._set(line)
                assert cache.line_resident(line) == (line in model_set)
                assert cache.is_dirty(line) == model_set.get(line, False)
        assert set_lines(cache) == ordered_items(model.sets)
        assert cache.stats == model.stats
    assert cache.resident_lines == sum(map(len, model.sets))


def tlb_ops(assoc: int):
    key = keys(assoc)
    return st.lists(
        st.one_of(
            st.tuples(st.just("lookup"), key),
            st.tuples(st.just("fill"), key),
            st.tuples(st.just("flush"), st.none()),
        ),
        min_size=10,
        max_size=60,
    )


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from([(1, 1), (4, 2), (2, 4), (16, 4)]).flatmap(
        lambda geometry: st.tuples(st.just(geometry), tlb_ops(geometry[1]))
    )
)
def test_tlb_matches_ordered_dict_model(case):
    """Every TLB geometry (sets x ways; set counts are powers of two)
    through any mix of lookups, fills and flushes."""
    (num_sets, assoc), ops = case
    tlb = Tlb(TlbConfig("oracle", num_sets * assoc, assoc))
    model = LruTlbModel(num_sets, assoc)
    for op, arg in ops:
        if op == "flush":
            tlb.flush()
            model.flush()
        else:
            tag, index = arg
            page = tag * num_sets + index % num_sets
            if op == "lookup":
                assert tlb.lookup(page) == model.lookup(page)
            else:
                tlb.fill(page)
                model.fill(page)
        assert ordered_items(tlb._sets) == ordered_items(model.sets)
