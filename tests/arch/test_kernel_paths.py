"""Directed op sequences through the fused kernel's rarely reached paths.

Sampled workloads reach most of ``CoreModel.run_compact`` but not all of
it: a reload caught in the line fill buffer, a sibling transfer of a line
the L3 has lost, a dirty L3 or L1D victim with nowhere else to go, and
the snoop responses of RFOs and upgrades.  Each case here is a short
hand-built op sequence that drives one socket into such a state.  It
runs twice, on two fresh sockets: through ``run_compact`` as one
:class:`~repro.arch.batch.CompactSample` per step, and op by op through
the per-op oracle's ``_load``/``_store``/``_fetch``.  After every step
the counters, every cache set (lines, LRU order, dirty bits), the TLBs,
the cache and TLB statistics, the directory and the prefetcher state
must agree.

The last test runs every case under a line tracer restricted to
``run_compact`` and fails if any of its statements goes unexecuted, so
a branch added to the kernel comes with a case that reaches it.
"""

import heapq
import inspect
import sys

import pytest

from repro.arch.batch import EV_FETCH, EV_LOAD, EV_NONE, EV_STORE, CompactSample
from repro.arch.cache import LINE_SHIFT
from repro.arch.core_model import _LFB_DEPTH, CoreModel
from repro.arch.pipeline import SampleCounts
from repro.arch.processor import Processor
from repro.arch.tlb import PAGE_SHIFT
from repro.arch.trace import OpTallies
from tests.arch import reference_engine
from tests.arch.test_processor import SMALL_L3

#: Sixteen lines this far apart fill one set of the 16-way ``SMALL_L3``.
L3_SETS = SMALL_L3.l3_size // (SMALL_L3.l3_associativity << LINE_SHIFT)
#: Lines this far apart share an L1D set (the L1D has 64 sets) ...
L1D_SETS = 64
#: ... and this far apart an L2 set (512 sets) and so an L1D set too.
L2_SETS = 512


def loads(*lines: int) -> list[tuple[str, int]]:
    return [("load", line) for line in lines]


def stores(*lines: int) -> list[tuple[str, int]]:
    return [("store", line) for line in lines]


def fetches(*lines: int) -> list[tuple[str, int]]:
    return [("fetch", line) for line in lines]


def compact(ops: list[tuple[str, int]]) -> CompactSample:
    """``ops`` as a sample with one event per op and nothing elided."""
    page_shift = PAGE_SHIFT - LINE_SHIFT
    codes = {"load": EV_LOAD, "store": EV_STORE, "fetch": EV_NONE + EV_FETCH}
    lines = [line for _, line in ops]
    pages = [line >> page_shift for line in lines]
    n_loads = sum(kind == "load" for kind, _ in ops)
    n_stores = sum(kind == "store" for kind, _ in ops)
    return CompactSample(
        n_ops=len(ops),
        codes=[codes[kind] for kind, _ in ops],
        ticks=list(range(len(ops))),
        mem_lines=lines,
        mem_pages=pages,
        fetch_lines=lines,
        fetch_pages=pages,
        elided=0,
        branch_pcs=[],
        branch_takens=[],
        tallies=OpTallies(n_loads, n_stores, 0, 0, 0, 0, 0),
    )


def oracle_sample(core: CoreModel, ops: list[tuple[str, int]]) -> SampleCounts:
    """``ops`` walked one at a time through the per-op oracle, with the
    MLP integral counted tick by tick as ``reference_engine.run_sample``
    counts it."""
    counts = SampleCounts()
    outstanding: list[int] = []
    for tick, (kind, line) in enumerate(ops):
        while outstanding and outstanding[0] <= tick:
            heapq.heappop(outstanding)
        if outstanding:
            counts.mlp_active += 1
            counts.mlp_sum += len(outstanding)
        addr = line << LINE_SHIFT
        if kind == "fetch":
            reference_engine._fetch(core, addr, counts)
        elif kind == "load":
            reference_engine._load(core, addr, tick, outstanding, counts)
        else:
            reference_engine._store(core, addr, tick, outstanding, counts)
    counts.instructions = len(ops)
    counts.loads = sum(kind == "load" for kind, _ in ops)
    counts.stores = sum(kind == "store" for kind, _ in ops)
    return counts


def socket_state(processor: Processor) -> list:
    """Everything a step can change, in comparable form."""
    state: list = [reference_engine.set_lines(processor.l3), vars(processor.l3.stats)]
    for core in processor.cores:
        for cache in (core.l1i, core.l1d, core.l2):
            state += [reference_engine.set_lines(cache), vars(cache.stats)]
        for tlb in (core.itlb, core.dtlb):
            state += [[list(s) for s in tlb.l1._sets], vars(tlb.stats)]
        state += [
            [list(s) for s in core.itlb.stlb._sets],
            list(core._lfb),
            list(core._stream_trackers.items()),
            core._last_fetch_line,
        ]
    state.append(
        {line: dict(holders) for line, holders in processor.directory._lines.items()}
    )
    return state


def run_case(steps: list[tuple[int, list[tuple[str, int]]]]) -> None:
    """Run ``steps`` (``(core_id, ops)``) through the kernel and the
    oracle on two fresh sockets; assert they agree after every step."""
    fused, oracle = Processor(SMALL_L3), Processor(SMALL_L3)
    for number, (core_id, ops) in enumerate(steps):
        got = fused.cores[core_id].run_compact(compact(ops))
        want = oracle_sample(oracle.cores[core_id], ops)
        assert got == want, f"step {number}: counters differ"
        assert socket_state(fused) == socket_state(oracle), f"step {number}: state differs"


def l1d_set_fillers(line: int, count: int) -> list[int]:
    """``count`` lines sharing ``line``'s L1D set, each on its own page,
    outside its L2 set for the first seven."""
    return [line + k * L1D_SETS for k in range(1, count + 1)]


#: Lines in distinct sets of every cache, one per scenario.
A, B, C, D = 3, 5, 7, 11

CASES = {
    # Nine L1D misses to one set overflow its eight ways while all nine
    # are still in flight: a load and a store to an evicted line both
    # merge into the fill buffer.
    "fill-buffer hits": [
        (0, loads(*range(0, 9 * L1D_SETS, L1D_SETS)) + loads(0) + stores(L1D_SETS)),
    ],
    # A step to the next line prefetches two lines ahead; a store then
    # hits a prefetched line no directory entry covers, a store hits a
    # line it owns Modified, and a load hits a prefetched line.  Another
    # core's load and store find prefetched lines in the L3, which no
    # core holds.
    "stream prefetch": [
        (0, loads(50 * 64, 50 * 64 + 1) + stores(50 * 64 + 2, 50 * 64 + 2)
         + loads(50 * 64 + 4) + stores(60 * 64, 60 * 64)),
        (1, loads(50 * 64 + 3) + stores(50 * 64 + 4)),
    ],
    # Eighty pages overflow the 48 stream trackers and a DTLB set; a page
    # the DTLB lost is still in the STLB; five pages 128 apart overflow
    # an STLB set.  The fetch side repeats the walk on its own pages,
    # with the L1I, L2 and L3 sets its lines crowd.
    "TLBs and trackers": [
        (0, loads(*(page * 64 for page in range(80))) + loads(0)
         + loads(*(page * 128 * 64 for page in range(1, 5)))),
        (0, fetches(*((1000 + page) * 64 for page in range(80)))
         + fetches(1000 * 64)
         + fetches(*((1000 + page * 128) * 64 for page in range(1, 5)))),
    ],
    # Sequential fetches install the next line ahead (in the L1I, the L2
    # and the L3), or re-insert it where it is already resident; a line
    # the L1I lost is refetched from the L2, and a line another core
    # fetched comes from the L3.  An install into a full L3 set evicts.
    "fetch levels": [
        (1, fetches(4000, 4001, 4002, 4003, 4000, 4001)),
        (0, fetches(4000, *(4000 + k * 128 for k in range(1, 5))) + fetches(4000)),
        (1, loads(*(A + k * L3_SETS for k in range(1, 17)))),
        (0, fetches(A - 2, A - 1)),
    ],
    # A store's line leaves the L3 dirty under sixteen fetches, then
    # another's under sixteen loads, all from a second core.
    "dirty L3 victims": [
        (0, stores(A)),
        (1, fetches(*(A + k * L3_SETS for k in range(1, 17)))),
        (0, stores(B)),
        (1, loads(*(B + k * L3_SETS for k in range(1, 17)))),
    ],
    # The L2 victim of a load is clean and still in the L1D (re-touched
    # there, LRU in the L2): it is back-invalidated.  A stored line is
    # the L2's dirty victim, written back; a fetch evicts a third,
    # dirty, from the L2 and the L1D.
    "L2 victims": [
        (0, loads(0, *(k * L2_SETS for k in range(1, 8))) + loads(0)
         + loads(8 * L2_SETS)),
        (0, stores(1) + loads(*(1 + k * L2_SETS for k in range(1, 8)))
         + loads(1) + loads(1 + 8 * L2_SETS)),
        (0, stores(2) + fetches(*(2 + k * L2_SETS for k in range(1, 9)))),
    ],
    # A dirty L1D victim lands in its L2 copy.  A dirty L1D line whose L2
    # copy the I-side prefetcher evicted silently (eight next-line
    # installs into its L2 set) has nowhere to go when the L1D evicts
    # it: it escapes the core and its directory entry goes.
    "dirty L1D victims": [
        (0, stores(A) + loads(*l1d_set_fillers(A, 8))),
        (0, stores(5000)),
        (0, [
            fetch
            for k in range(1, 9)
            for fetch in fetches(5000 - 2 + k * L2_SETS, 5000 - 1 + k * L2_SETS)
        ]),
        (0, loads(*l1d_set_fillers(5000, 8))),
    ],
    # Loads and RFOs meet each snoop response: a line read by two cores
    # (HITE, then HIT for a third reader), written by a fourth (HIT),
    # read back Modified (HITM); an RFO against an Exclusive (HITE) and
    # a Modified (HITM) copy.  Each transfer finds its line in the L3.
    "snoop responses": [
        (0, loads(A)),
        (1, loads(A)),
        (2, loads(A)),
        (3, stores(A)),
        (4, loads(A)),
        (5, stores(A)),
        (0, loads(B)),
        (1, stores(B)),
        (0, stores(C)),
        (1, stores(C)),
    ],
    # Sibling transfers of lines the L3 has lost (sixteen loads from
    # another core evicted them): a load's fill installs clean, a store's
    # dirty.
    "sibling transfer misses the L3": [
        (0, loads(A, B)),
        (1, loads(*(A + k * L3_SETS for k in range(1, 17)))),
        (1, loads(*(B + k * L3_SETS for k in range(1, 17)))),
        (2, loads(A) + stores(B)),
    ],
    # Store hits on a line held Shared upgrade it, in the L1D and (once
    # the L1D and the fill buffer have lost it) in the L2; the HIT
    # response counts.  With the other sharer gone (its L2 evicted the
    # line) an upgrade meets no one.  Exclusive lines turn Modified
    # silently, in the L1D and in the L2.
    "upgrades and silent E to M": [
        (0, loads(A)),
        (1, loads(A)),
        (0, stores(A)),
        (0, loads(B)),
        (1, loads(B)),
        (0, loads(*l1d_set_fillers(B, _LFB_DEPTH)) + stores(B)),
        (0, loads(C)),
        (1, loads(C) + loads(*(C + k * L2_SETS for k in range(1, 9)))),
        (0, stores(C)),
        (0, loads(D) + stores(D)),
        (0, loads(D + 1) + loads(*l1d_set_fillers(D + 1, _LFB_DEPTH)) + stores(D + 1)),
    ],
}


@pytest.mark.parametrize("name", CASES)
def test_kernel_matches_the_oracle(name):
    run_case(CASES[name])


#: Statements of ``run_compact`` no case executes, as their source text,
#: each with the reason it cannot run.  None today: an upgrade's HITE
#: and HITM responses cannot happen (see the comment at the upgrade), so
#: the kernel no longer counts them.
UNREACHED: dict[str, str] = {}


def test_cases_execute_every_statement_of_run_compact():
    code = CoreModel.run_compact.__code__
    statements = {
        line for _, _, line in code.co_lines() if line is not None
    } - {code.co_firstlineno}
    executed: set[int] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            executed.add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        for steps in CASES.values():
            run_case(steps)
    finally:
        sys.settrace(previous)
    source, first = inspect.getsourcelines(code)
    missed = {
        line: source[line - first].strip() for line in statements - executed
    }
    unexplained = [
        f"line {line}: {text}"
        for line, text in sorted(missed.items())
        if text not in UNREACHED
    ]
    assert unexplained == []
    assert set(missed.values()) == set(UNREACHED)  # no stale entries
