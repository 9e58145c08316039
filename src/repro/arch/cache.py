"""Set-associative cache model with LRU replacement.

The simulated memory hierarchy of the testbed processor (Table III) is built
from instances of :class:`SetAssociativeCache`: split 32 KB L1I/L1D, a
256 KB private unified L2 per core, and a 12 MB L3 shared by the six cores
of a socket.  The model is a functional tag-array simulation — real sets,
real ways, real LRU state — driven by the sampled address streams the
instrumentation layer synthesises from engine activity.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
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


class SetAssociativeCache:
    """A write-back, write-allocate set-associative cache with true LRU.

    Each set is an :class:`collections.OrderedDict` mapping line address to
    a dirty bit, ordered from least to most recently used.
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

    def __init__(self, config: CacheConfig) -> None:
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
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(config.num_sets)
        ]

    def line_address(self, addr: int) -> int:
        """Return the line-aligned address containing byte ``addr``."""
        return addr >> self._line_shift

    def _set_for(self, line_addr: int) -> OrderedDict[int, bool]:
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
            cache_set.move_to_end(line)
            if is_write:
                cache_set[line] = True
            return CacheAccess(True, line)
        stats.misses += 1
        evicted_line = None
        writeback = False
        if len(cache_set) >= self._assoc:
            evicted_line, evicted_dirty = cache_set.popitem(last=False)
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
            cache_set.move_to_end(line_addr)
            return
        if len(cache_set) >= self._assoc:
            cache_set.popitem(last=False)
        cache_set[line_addr] = False

    def install_span(self, first_line: int, count: int) -> None:
        """Install ``count`` lines ending at ``first_line`` (coldest first).

        Equivalent to ``install_line(first_line + offset)`` for ``offset``
        descending from ``count - 1`` to 0, with the per-line call overhead
        hoisted out — pre-warming installs hundreds of thousands of lines.
        """
        sets = self._sets
        mask = self._set_mask
        num_sets = self._num_sets
        assoc = self._assoc
        capacity = num_sets * assoc
        if count >= 4 * capacity:
            # A span this large wipes the cache: each set sees >= 4x its
            # associativity in distinct installs, so every pre-existing
            # line (and every span line present before its own install)
            # is evicted before the final window lands.  The end state is
            # therefore exactly the last ``capacity`` installed lines —
            # the lowest ones, since installs run coldest-first — all
            # clean, in install order.  Rebuild that state directly
            # instead of touching millions of lines (evictions here are
            # silent by install_line semantics, so no stats are owed).
            for cache_set in sets:
                cache_set.clear()
            for line in range(first_line + capacity - 1, first_line - 1, -1):
                sets[line & mask if mask else line % num_sets][line] = False
            return
        if count >= num_sets:
            # Wide span: visit each set once and walk its arithmetic
            # subsequence of lines directly, hoisting the set lookup out
            # of the per-line loop.  install_line effects are confined
            # to the line's own set (silent evictions, no stats), so
            # reordering installs *across* sets — while keeping each
            # set's installs in original descending order — leaves the
            # final state bit-identical.  (Contiguous lines hit set
            # ``line % num_sets`` whether the cache indexes by mask or
            # by modulo, so one grouping works for both.)
            hi = first_line + count - 1
            for index in range(num_sets):
                top = hi - ((hi - index) % num_sets)
                cache_set = sets[index]
                for line in range(top, first_line - 1, -num_sets):
                    if line in cache_set:
                        cache_set.move_to_end(line)
                    else:
                        if len(cache_set) >= assoc:
                            cache_set.popitem(last=False)
                        cache_set[line] = False
            return
        for line in range(first_line + count - 1, first_line - 1, -1):
            cache_set = sets[line & mask if mask else line % num_sets]
            if line in cache_set:
                cache_set.move_to_end(line)
                continue
            if len(cache_set) >= assoc:
                cache_set.popitem(last=False)
            cache_set[line] = False

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
        """Empty the cache, keeping statistics."""
        for cache_set in self._sets:
            cache_set.clear()

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(cache_set) for cache_set in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (
            f"SetAssociativeCache({cfg.name}, {cfg.size >> 10}KB, "
            f"{cfg.associativity}-way, {cfg.line_size}B lines)"
        )
