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

    Every level has 64-byte lines (:data:`LINE_SHIFT`) and is write-back,
    as throughout the modelled Westmere hierarchy.
    """

    name: str
    size: int
    associativity: int

    def __post_init__(self) -> None:
        if self.size <= 0 or self.associativity <= 0:
            raise ConfigurationError(f"{self.name}: all cache dimensions must be positive")
        if self.size % (self.associativity << LINE_SHIFT) != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size} is not divisible by "
                f"associativity*line size = {self.associativity << LINE_SHIFT}"
            )
        # Note: the set count need not be a power of two — the modelled
        # Westmere L3 (12 MB, 16-way) has 12288 sets across three slices.

    @property
    def num_sets(self) -> int:
        """Number of sets in the tag array."""
        return self.size // (self.associativity << LINE_SHIFT)


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


def _set_templates(
    spans: list[tuple[int, int]], num_sets: int, assoc: int
) -> tuple[list[int], list[dict[int, bool]]]:
    """The sets a pre-warm from ``spans`` leaves, one template per run.

    Pre-warm installs each ``(first_line, count)`` span coldest first,
    span after span (:meth:`SetAssociativeCache.fill`).  From an empty
    cache and disjoint spans, set ``i`` ends with, from each span,
    hottest first, its lines of set ``i`` (``range(first + (i - first) %
    num_sets, first + count, num_sets)``), up to ``assoc`` lines in all,
    clean and least recently used first.  Line ``k * num_sets + i`` has
    tag ``k`` whatever ``i`` is, so the tags only change where ``i``
    crosses a span's first or end set.

    Returns:
        ``(cuts, templates)``: the sorted first index of each run of
        sets between such cuts (``cuts[0]`` is 0), and each run's set
        as a tag-to-dirty-bit ``dict``, to be copied, not shared.
    """
    hottest = spans[::-1]
    cuts = sorted(
        {0}.union(
            *((first % num_sets, (first + count) % num_sets)
              for first, count in hottest)
        )
    )
    templates = []
    for index in cuts:
        lines: list[int] = []
        for first, count in hottest:
            lines += range(
                first + (index - first) % num_sets, first + count, num_sets
            )[:assoc]
        tags = [line // num_sets for line in lines[assoc - 1 :: -1]]
        templates.append(dict.fromkeys(tags, False))
    return cuts, templates


class _FirstTouchSets(dict):
    """A cache's sets keyed by index, each built on its first read.

    After :meth:`record`, reading a missing index ``i`` builds the set a
    pre-warm from the recorded spans leaves there: a copy of the
    template of ``i``'s run (:func:`_set_templates`), one ``bisect`` and
    one ``dict.copy``.
    """

    __slots__ = ("num_sets", "assoc", "cuts", "templates")

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__()
        self.num_sets = num_sets
        self.assoc = assoc
        self.record([])

    def record(self, spans: list[tuple[int, int]]) -> None:
        """Drop every built set and build from ``spans`` (``(first_line,
        count)``, coldest first) from now on."""
        self.clear()
        self.cuts, self.templates = _set_templates(
            spans, self.num_sets, self.assoc
        )

    def __missing__(self, index: int) -> dict[int, bool]:
        template = self.templates[bisect_right(self.cuts, index) - 1]
        cache_set = self[index] = template.copy()
        return cache_set


class SetAssociativeCache:
    """A write-back, write-allocate set-associative cache with true LRU.

    Each set is a plain ``dict`` mapping a resident line's tag (``line //
    num_sets``) to its dirty bit; set ``i`` holds line ``tag * num_sets
    + i``.  Its insertion order is the LRU order, least recently used
    first: a hit re-inserts its tag at the end (``s[tag] = s.pop(tag)``)
    and the victim is the first key.  Tags rather than lines, so that
    every set a pre-warm leaves in one run of indices is a copy of one
    template.

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
        "_assoc",
        "_sets",
    )

    def __init__(self, config: CacheConfig, first_touch: bool = False) -> None:
        self.config = config
        self.stats = CacheStats()
        self._num_sets = config.num_sets
        # Power-of-two set counts (every cache but the modelled L3) index
        # with a precomputed mask in the fused kernel, which takes the
        # tag as ``line >> _set_mask.bit_length()``; 0 means "modulo".
        self._set_mask = (
            self._num_sets - 1 if _is_power_of_two(self._num_sets) else 0
        )
        self._assoc = config.associativity
        self._sets: list[dict[int, bool]] | _FirstTouchSets = (
            _FirstTouchSets(self._num_sets, self._assoc)
            if first_touch
            else [{} for _ in range(config.num_sets)]
        )

    def line_address(self, addr: int) -> int:
        """Return the line-aligned address containing byte ``addr``."""
        return addr >> LINE_SHIFT

    def _locate(self, line_addr: int) -> tuple[dict[int, bool], int]:
        """The set that holds ``line_addr``, and the line's tag there."""
        tag, index = divmod(line_addr, self._num_sets)
        return self._sets[index], tag

    def access(self, addr: int, is_write: bool = False) -> CacheAccess:
        """Access byte address ``addr``; fill on miss (write-allocate).

        Returns:
            A :class:`CacheAccess` describing hit/miss and any eviction.
        """
        line = addr >> LINE_SHIFT
        cache_set, tag = self._locate(line)
        stats = self.stats
        if tag in cache_set:
            stats.hits += 1
            dirty = cache_set.pop(tag)
            cache_set[tag] = True if is_write else dirty
            return CacheAccess(True, line)
        stats.misses += 1
        evicted_line = None
        writeback = False
        if len(cache_set) >= self._assoc:
            victim = next(iter(cache_set))
            evicted_dirty = cache_set.pop(victim)
            evicted_line = line + (victim - tag) * self._num_sets
            stats.evictions += 1
            if evicted_dirty:
                stats.writebacks += 1
                writeback = True
        cache_set[tag] = is_write
        return CacheAccess(False, line, evicted_line, writeback)

    def install_line(self, line_addr: int) -> None:
        """Fill ``line_addr`` without demand-access statistics (prefetch).

        Hardware prefetchers bring lines in ahead of demand; PMU demand
        events do not count them.  A victim is still evicted (silently —
        the caller models prefetches as best-effort and ignores dirty
        victims, a second-order effect).
        """
        cache_set, tag = self._locate(line_addr)
        if tag in cache_set:
            cache_set[tag] = cache_set.pop(tag)
            return
        if len(cache_set) >= self._assoc:
            del cache_set[next(iter(cache_set))]
        cache_set[tag] = False

    def fill(self, spans: list[tuple[int, int]]) -> None:
        """Pre-warm this empty cache from disjoint ``(first_line, count)``
        spans, each installed coldest first.

        Ends in the state of ``install_line(first_line + offset)`` for
        ``offset`` from ``count - 1`` down to 0, span after span: the
        pre-warm protocol, hundreds of thousands of lines.  From an empty
        cache and disjoint spans, every set in one run of indices between
        the spans' first and end sets ends with the same tags
        (:func:`_set_templates`).  A first-touch cache only records the
        spans, and copies a set's template when the set is first read;
        any other cache copies every set's template now.

        Raises:
            ConfigurationError: If the cache already holds lines or
                spans, or if two spans overlap.
        """
        sets = self._sets
        name = self.config.name
        first_touch = isinstance(sets, _FirstTouchSets)
        if first_touch:
            used = any(sets.templates) or any(sets.values())
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
        num_sets = self._num_sets
        cuts, templates = _set_templates(spans, num_sets, self._assoc)
        sets[:] = [
            template.copy()
            for template, low, high in zip(templates, cuts, cuts[1:] + [num_sets])
            for _ in range(low, high)
        ]

    def line_resident(self, line_addr: int) -> bool:
        """Whether line-aligned address ``line_addr`` is resident."""
        cache_set, tag = self._locate(line_addr)
        return tag in cache_set

    def is_dirty(self, line_addr: int) -> bool:
        """Whether resident line ``line_addr`` is dirty (False if absent)."""
        cache_set, tag = self._locate(line_addr)
        return cache_set.get(tag, False)

    def invalidate_line(self, line_addr: int) -> bool:
        """Drop line ``line_addr`` if present (coherence invalidation).

        Returns:
            True if the line was present and dirty (i.e. data was lost to
            the invalidation and must have been transferred).
        """
        cache_set, tag = self._locate(line_addr)
        if tag not in cache_set:
            return False
        dirty = cache_set.pop(tag)
        self.stats.invalidations += 1
        return dirty

    def set_dirty(self, line_addr: int) -> bool:
        """Mark resident line ``line_addr`` dirty (a write-back landing).

        Returns:
            True if the line was resident (the write-back was absorbed).
        """
        cache_set, tag = self._locate(line_addr)
        if tag in cache_set:
            cache_set[tag] = True
            return True
        return False

    def flush(self) -> None:
        """Empty the cache, keeping statistics.  A first-touch cache drops
        its built sets and its templates at once."""
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
            f"{cfg.associativity}-way)"
        )
