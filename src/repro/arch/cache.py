"""Set-associative cache model with LRU replacement.

The simulated memory hierarchy of the testbed processor (Table III) is built
from instances of :class:`SetAssociativeCache`: split 32 KB L1I/L1D, a
256 KB private unified L2 per core, and a 12 MB L3 shared by the six cores
of a socket.  The model is a functional tag-array simulation — real sets,
real ways, real LRU state — driven by the sampled address streams the
instrumentation layer synthesises from engine activity.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import compress, repeat
from operator import setitem
from typing import NamedTuple

from repro.errors import ConfigurationError

__all__ = [
    "CacheConfig",
    "CacheAccess",
    "CacheStats",
    "SetAssociativeCache",
    "LINE_SHIFT",
]

LINE_SHIFT = 6  # 64-byte lines throughout the hierarchy (Table III)

#: A set's free ways after one more line lands in it (byte ``r`` maps to
#: ``r - 1``; a full set stays full).
_TAKE_WAY = bytes([0, *range(255)])


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    Attributes:
        name: Human-readable level name (e.g. ``"L1D"``).
        size: Total capacity in bytes.
        associativity: Number of ways per set.
        line_size: Cache line size in bytes.
        write_back: Whether dirty lines are written back on eviction
            (all caches in the modelled Westmere hierarchy are write-back).
    """

    name: str
    size: int
    associativity: int
    line_size: int = 1 << LINE_SHIFT
    write_back: bool = True

    def __post_init__(self) -> None:
        if self.size <= 0 or self.associativity <= 0 or self.line_size <= 0:
            raise ConfigurationError(f"{self.name}: all cache dimensions must be positive")
        if not _is_power_of_two(self.line_size):
            raise ConfigurationError(f"{self.name}: line size must be a power of two")
        if self.size % (self.associativity * self.line_size) != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size} is not divisible by "
                f"associativity*line_size = {self.associativity * self.line_size}"
            )
        # Note: the set count need not be a power of two — the modelled
        # Westmere L3 (12 MB, 16-way) has 12288 sets across three slices.

    @property
    def num_sets(self) -> int:
        """Number of sets in the tag array."""
        return self.size // (self.associativity * self.line_size)


class CacheAccess(NamedTuple):
    """Outcome of a single cache access.

    Attributes:
        hit: Whether the line was present.
        line_addr: The line-aligned address that was accessed.
        evicted_line: Line address evicted to make room, if any.
        writeback: Whether the evicted line was dirty (needs a write-back).
    """

    hit: bool
    line_addr: int
    evicted_line: int | None = None
    writeback: bool = False


@dataclass
class CacheStats:
    """Running hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class _FirstTouchSets(dict):
    """A cache's sets keyed by index, each built on its first read.

    After :meth:`record`, reading a missing index ``i`` builds the set
    the eager fill would have left there: from each span, hottest first,
    its lines of set ``i`` (``range(first + (i - first) % num_sets,
    first + count, num_sets)``), up to ``assoc`` lines in all, stored
    clean and least recently used first.  Those lines are ``i`` plus
    offsets that change only where ``i`` crosses a span's first or end
    set, so :meth:`record` works the offsets out once for each run of
    set indices between such cuts, and a build is one lookup and one
    ``dict.fromkeys``.
    """

    __slots__ = ("num_sets", "assoc", "cuts", "offsets")

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__()
        self.num_sets = num_sets
        self.assoc = assoc
        self.record([])

    def record(self, spans: list[tuple[int, int]]) -> None:
        """Drop every built set and build from ``spans`` (``(first_line,
        count)``, coldest first) from now on."""
        self.clear()
        num_sets, assoc = self.num_sets, self.assoc
        hottest = spans[::-1]
        self.cuts = sorted(
            {0}.union(
                *((first % num_sets, (first + count) % num_sets)
                  for first, count in hottest)
            )
        )
        self.offsets: list[tuple[int, ...]] = []
        for index in self.cuts:
            lines: list[int] = []
            for first, count in hottest:
                lines += range(
                    first + (index - first) % num_sets, first + count, num_sets
                )[:assoc]
            self.offsets.append(
                tuple(line - index for line in lines[assoc - 1 :: -1])
            )

    def __missing__(self, index: int) -> dict[int, bool]:
        offsets = self.offsets[bisect_right(self.cuts, index) - 1]
        cache_set = self[index] = dict.fromkeys(map(index.__add__, offsets), False)
        return cache_set


class SetAssociativeCache:
    """A write-back, write-allocate set-associative cache with true LRU.

    Each set is a plain ``dict`` mapping line address to a dirty bit.  Its
    insertion order is the LRU order, least recently used first: a hit
    re-inserts its line at the end (``s[line] = s.pop(line)``) and the
    victim is the first key.

    ``_sets`` is a list of every set, or with ``first_touch`` a
    :class:`_FirstTouchSets` that builds each set from the recorded
    pre-warm spans when something first reads it, so a workload pays
    only for the sets its samples reach.  Either way ``_sets[i]`` is set
    ``i``.
    """

    __slots__ = (
        "config",
        "stats",
        "_num_sets",
        "_set_mask",
        "_line_shift",
        "_assoc",
        "_write_back",
        "_sets",
    )

    def __init__(self, config: CacheConfig, first_touch: bool = False) -> None:
        self.config = config
        self.stats = CacheStats()
        self._num_sets = config.num_sets
        # Power-of-two set counts (every cache but the modelled L3) index
        # with a precomputed mask; 0 means "fall back to modulo".
        self._set_mask = (
            self._num_sets - 1 if _is_power_of_two(self._num_sets) else 0
        )
        self._line_shift = config.line_size.bit_length() - 1
        self._assoc = config.associativity
        self._write_back = config.write_back
        self._sets: list[dict[int, bool]] | _FirstTouchSets = (
            _FirstTouchSets(self._num_sets, self._assoc)
            if first_touch
            else [{} for _ in range(config.num_sets)]
        )

    def line_address(self, addr: int) -> int:
        """Return the line-aligned address containing byte ``addr``."""
        return addr >> self._line_shift

    def _set_for(self, line_addr: int) -> dict[int, bool]:
        mask = self._set_mask
        return self._sets[line_addr & mask if mask else line_addr % self._num_sets]

    def access(self, addr: int, is_write: bool = False) -> CacheAccess:
        """Access byte address ``addr``; fill on miss (write-allocate).

        Returns:
            A :class:`CacheAccess` describing hit/miss and any eviction.
        """
        line = addr >> self._line_shift
        cache_set = self._set_for(line)
        stats = self.stats
        if line in cache_set:
            stats.hits += 1
            dirty = cache_set.pop(line)
            cache_set[line] = True if is_write else dirty
            return CacheAccess(True, line)
        stats.misses += 1
        evicted_line = None
        writeback = False
        if len(cache_set) >= self._assoc:
            evicted_line = next(iter(cache_set))
            evicted_dirty = cache_set.pop(evicted_line)
            stats.evictions += 1
            if evicted_dirty and self._write_back:
                stats.writebacks += 1
                writeback = True
        cache_set[line] = is_write
        return CacheAccess(False, line, evicted_line, writeback)

    def install_line(self, line_addr: int) -> None:
        """Fill ``line_addr`` without demand-access statistics (prefetch).

        Hardware prefetchers bring lines in ahead of demand; PMU demand
        events do not count them.  A victim is still evicted (silently —
        the caller models prefetches as best-effort and ignores dirty
        victims, a second-order effect).
        """
        mask = self._set_mask
        cache_set = self._sets[
            line_addr & mask if mask else line_addr % self._num_sets
        ]
        if line_addr in cache_set:
            cache_set[line_addr] = cache_set.pop(line_addr)
            return
        if len(cache_set) >= self._assoc:
            del cache_set[next(iter(cache_set))]
        cache_set[line_addr] = False

    def fill(self, spans: list[tuple[int, int]]) -> None:
        """Pre-warm this empty cache from disjoint ``(first_line, count)``
        spans, each installed coldest first.

        Ends in the state of ``install_line(first_line + offset)`` for
        ``offset`` from ``count - 1`` down to 0, span after span: the
        pre-warm protocol, hundreds of thousands of lines.  From an empty
        cache and disjoint spans, each set simply ends with the last
        ``assoc`` lines installed into it, clean, in install order.  A
        first-touch cache only records the spans, and builds each set
        from them when it is first read; any other cache writes only
        those lines, in one pass.

        Raises:
            ConfigurationError: If the cache already holds lines or
                spans, if two spans overlap, or if an eager cache has
                more than 255 ways (the one pass counts free ways in
                bytes).
        """
        sets = self._sets
        name = self.config.name
        first_touch = isinstance(sets, _FirstTouchSets)
        if first_touch:
            used = any(sets.offsets) or any(sets.values())
        else:
            used = any(sets)
        if used:
            raise ConfigurationError(f"{name}: fill needs an empty cache")
        ordered = sorted(spans)
        if any(
            first + count > next_first
            for (first, count), (next_first, _) in zip(ordered, ordered[1:])
        ):
            raise ConfigurationError(f"{name}: fill spans overlap")
        if first_touch:
            sets.record(spans)
            return
        if self._assoc > 255:
            raise ConfigurationError(f"{name}: fill handles at most 255 ways")
        num_sets = self._num_sets
        # Walk the lines hottest first (spans last to first, each upward
        # from its first line) in blocks that never wrap past the last
        # set, so a block's lines land in distinct, consecutive sets under
        # mask and modulo indexing alike.  A line survives iff its set
        # still has a free way when the walk reaches it; a span's lines
        # past its first ``capacity`` never do.
        free = bytearray([self._assoc]) * num_sets
        capacity = num_sets * self._assoc
        blocks = []
        for first_line, count in reversed(spans):
            low, end = first_line, first_line + min(count, capacity)
            while low < end:
                index = low % num_sets
                high = min(end, low - index + num_sets)
                stop = index + high - low
                ways = free[index:stop]
                if ways.count(0) < len(ways):
                    free[index:stop] = ways.translate(_TAKE_WAY)
                    lines, targets = range(low, high), sets[index:stop]
                    if 0 in ways:
                        lines = compress(lines, ways)
                        targets = list(compress(targets, ways))
                    blocks.append((targets, lines))
                low = high
        # Each set receives at most one line per block, so writing the
        # blocks coldest first reproduces every set's install order.
        for targets, lines in reversed(blocks):
            deque(map(setitem, targets, lines, repeat(False)), maxlen=0)

    def line_resident(self, line_addr: int) -> bool:
        """Whether line-aligned address ``line_addr`` is resident."""
        return line_addr in self._set_for(line_addr)

    def is_dirty(self, line_addr: int) -> bool:
        """Whether resident line ``line_addr`` is dirty (False if absent)."""
        return self._set_for(line_addr).get(line_addr, False)

    def invalidate_line(self, line_addr: int) -> bool:
        """Drop line ``line_addr`` if present (coherence invalidation).

        Returns:
            True if the line was present and dirty (i.e. data was lost to
            the invalidation and must have been transferred).
        """
        cache_set = self._set_for(line_addr)
        if line_addr not in cache_set:
            return False
        dirty = cache_set.pop(line_addr)
        self.stats.invalidations += 1
        return dirty

    def set_dirty(self, line_addr: int) -> bool:
        """Mark resident line ``line_addr`` dirty (a write-back landing).

        Returns:
            True if the line was resident (the write-back was absorbed).
        """
        cache_set = self._set_for(line_addr)
        if line_addr in cache_set:
            cache_set[line_addr] = True
            return True
        return False

    def flush(self) -> None:
        """Empty the cache, keeping statistics.  A first-touch cache drops
        its built sets and its spans at once."""
        sets = self._sets
        if isinstance(sets, _FirstTouchSets):
            sets.record([])
            return
        for cache_set in sets:
            cache_set.clear()

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident (builds every first-touch
        set)."""
        sets = self._sets
        return sum(len(sets[index]) for index in range(self._num_sets))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (
            f"SetAssociativeCache({cfg.name}, {cfg.size >> 10}KB, "
            f"{cfg.associativity}-way, {cfg.line_size}B lines)"
        )
