"""Two-level TLB model matching the Table III configuration.

The testbed's Westmere cores have a 64-entry, 4-way L1 ITLB, a 64-entry,
4-way L1 DTLB, and a 512-entry, 4-way second-level TLB (STLB) shared
between instruction and data translations.  A first-level miss that hits
the STLB costs a short fill; a miss in both levels triggers a page walk
whose cycles feed the ``ITLB_CYCLE`` / ``DTLB_CYCLE`` Table II metrics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ConfigurationError

__all__ = [
    "TlbConfig",
    "TlbOutcome",
    "TlbLookup",
    "Tlb",
    "TlbHierarchy",
    "TlbStats",
]

PAGE_SHIFT = 12  # 4 KiB pages
PAGE_SIZE = 1 << PAGE_SHIFT


@dataclass(frozen=True)
class TlbConfig:
    """Geometry of one TLB level."""

    name: str
    entries: int
    associativity: int

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.associativity <= 0:
            raise ConfigurationError(f"{self.name}: entries/associativity must be positive")
        if self.entries % self.associativity != 0:
            raise ConfigurationError(
                f"{self.name}: {self.entries} entries not divisible by "
                f"{self.associativity} ways"
            )
        sets = self.entries // self.associativity
        if sets & (sets - 1):
            raise ConfigurationError(f"{self.name}: set count must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.entries // self.associativity


class TlbOutcome(enum.Enum):
    """Where a translation was satisfied."""

    L1_HIT = "l1-hit"
    STLB_HIT = "stlb-hit"
    PAGE_WALK = "page-walk"


class TlbLookup(NamedTuple):
    """Outcome of a translation, with the page-walk cost if one occurred."""

    outcome: TlbOutcome
    walk_cycles: int = 0


#: Singleton fast-path result (the overwhelmingly common L1 TLB hit).
_L1_HIT = TlbLookup(TlbOutcome.L1_HIT, 0)


@dataclass
class TlbStats:
    """Running counters for one TLB hierarchy port (instruction or data)."""

    l1_hits: int = 0
    stlb_hits: int = 0
    walks: int = 0
    walk_cycles: int = 0

    @property
    def lookups(self) -> int:
        return self.l1_hits + self.stlb_hits + self.walks

    @property
    def l1_misses(self) -> int:
        """First-level misses (STLB hits plus full walks)."""
        return self.stlb_hits + self.walks


class Tlb:
    """One set-associative TLB level with LRU replacement over page numbers.

    Each set is a plain ``dict`` of page numbers (values unused) whose
    insertion order is the LRU order, least recently used first.
    """

    __slots__ = ("config", "_set_mask", "_assoc", "_sets")

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        self._set_mask = config.num_sets - 1
        self._assoc = config.associativity
        self._sets: list[dict[int, None]] = [{} for _ in range(config.num_sets)]

    def _set_for(self, page: int) -> dict[int, None]:
        return self._sets[page & self._set_mask]

    def lookup(self, page: int) -> bool:
        """Probe for ``page``; returns hit and updates LRU (no fill on miss)."""
        tlb_set = self._set_for(page)
        if page in tlb_set:
            tlb_set[page] = tlb_set.pop(page)
            return True
        return False

    def fill(self, page: int) -> None:
        """Install ``page``, evicting the LRU victim if the set is full."""
        tlb_set = self._set_for(page)
        if page in tlb_set:
            tlb_set[page] = tlb_set.pop(page)
            return
        if len(tlb_set) >= self._assoc:
            del tlb_set[next(iter(tlb_set))]
        tlb_set[page] = None

    def flush(self) -> None:
        for tlb_set in self._sets:
            tlb_set.clear()


class TlbHierarchy:
    """An L1 TLB backed by a (possibly shared) second-level TLB.

    The same STLB instance can back both the instruction and the data
    hierarchy, as on the modelled processor.
    """

    #: Cycles to refill the L1 TLB from an STLB hit.
    STLB_FILL_CYCLES = 7
    #: Cycles for a full page walk (two-level walk hitting the caches).
    PAGE_WALK_CYCLES = 30

    __slots__ = ("l1", "stlb", "stats")

    def __init__(self, l1: Tlb, stlb: Tlb) -> None:
        self.l1 = l1
        self.stlb = stlb
        self.stats = TlbStats()

    def translate(self, addr: int) -> TlbLookup:
        """Translate byte address ``addr``, filling TLBs on the way."""
        page = addr >> PAGE_SHIFT
        stats = self.stats
        if self.l1.lookup(page):
            stats.l1_hits += 1
            return _L1_HIT
        if self.stlb.lookup(page):
            stats.stlb_hits += 1
            self.l1.fill(page)
            return TlbLookup(TlbOutcome.STLB_HIT, walk_cycles=self.STLB_FILL_CYCLES)
        stats.walks += 1
        stats.walk_cycles += self.PAGE_WALK_CYCLES
        self.stlb.fill(page)
        self.l1.fill(page)
        return TlbLookup(TlbOutcome.PAGE_WALK, walk_cycles=self.PAGE_WALK_CYCLES)
