"""Per-core simulation engine.

A :class:`CoreModel` owns one core's private state — split L1I/L1D, a
unified L2, the two-level TLBs and a gshare branch predictor — and shares
the socket's L3 and coherence directory with its siblings.  Feeding it a
:class:`~repro.arch.batch.CompactSample` runs a sampled functional
simulation: every synthesised operation walks the real tag arrays, so hit
levels, snoop responses, TLB walks and branch mispredictions are emergent
rather than dialled in.

:meth:`CoreModel.run_compact` is the hottest code in the repository
(millions of simulated operations per workload), so it inlines the
caches', TLBs' and directory's hot paths over their internal sets and
keeps every counter in a local; loads and stores go through one data
arm.  Every set is a plain ``dict`` whose insertion order is the LRU
order: a hit re-inserts its key (``s[k] = s.pop(k)``, ``or store`` in
the data arm, whose stores dirty the line) and the victim is the first
key, ``next(iter(s))``.  A TLB set is keyed by page; a cache set by
the line's tag, ``line >> shift`` in a private cache and ``line //
num_sets`` in the L3.  Where the kernel needs a private victim's line
back (to back-invalidate the L1D, to write back into the L2, for the
directory) it rebuilds it as ``tag << shift | index``; of an L3 victim
it only reads the dirty bit.
"""

from __future__ import annotations

from collections import deque

from repro.arch.batch import mlp_from_deadlines
from repro.arch.branch import GsharePredictor
from repro.arch.cache import LINE_SHIFT, CacheConfig, SetAssociativeCache
from repro.arch.coherence import CoherenceDirectory, MesiState, SnoopResponse
from repro.arch.pipeline import SampleCounts
from repro.arch.tlb import Tlb, TlbConfig, TlbHierarchy
from repro.arch import trace as trace_mod
from repro.arch.trace import PhaseProfile

__all__ = ["CoreModel", "LINE_SHIFT"]

#: Approximate service times in op-ticks, used only for the MLP integral
#: (the cycle model converts real penalties separately).
_MLP_SERVICE_MEM = 40
_MLP_SERVICE_L3 = 9
_MLP_SERVICE_SIBLING = 13

#: Line fill buffer depth (Westmere has 10 fill buffers per core).
_LFB_DEPTH = 10

#: Concurrent stream detectors in the hardware prefetcher (per core).
_STREAM_TRACKERS = 48

_PAGE_WALK_CYCLES = TlbHierarchy.PAGE_WALK_CYCLES


def _prefetch_pair(
    line,
    l1d_sets, l1d_mask, l1d_assoc,
    l2_sets, l2_mask, l2_assoc,
    l3_sets, l3_nsets, l3_assoc,
    l1d_shift, l2_shift,
):
    """Install ``line + 1`` and ``line + 2`` throughout the hierarchy.

    Real L1/L2 prefetchers track a few dozen independent streams (one
    per 4 KB page); on a detected sequential pattern within a page the
    next two lines are installed throughout the hierarchy without demand
    statistics, which is why streaming scans do not drown the LLC in
    compulsory misses on real hardware.  Takes the pre-resolved set
    lists so it stays free of attribute lookups.  Returns the off-core
    prefetch count (lines that were not L2-resident before their
    install: the prefetch escapes the core like a demand read would).
    """
    offcore = 0
    for ahead in (line + 1, line + 2):
        a_set = l2_sets[ahead & l2_mask]
        a_tag = ahead >> l2_shift
        if a_tag not in a_set:
            offcore += 1
        d_set = l1d_sets[ahead & l1d_mask]
        d_tag = ahead >> l1d_shift
        if d_tag in d_set:
            d_set[d_tag] = d_set.pop(d_tag)
        else:
            if len(d_set) >= l1d_assoc:
                del d_set[next(iter(d_set))]
            d_set[d_tag] = False
        if a_tag in a_set:
            a_set[a_tag] = a_set.pop(a_tag)
        else:
            if len(a_set) >= l2_assoc:
                del a_set[next(iter(a_set))]
            a_set[a_tag] = False
        a_set = l3_sets[ahead % l3_nsets]
        tag = ahead // l3_nsets
        if tag in a_set:
            a_set[tag] = a_set.pop(tag)
        else:
            if len(a_set) >= l3_assoc:
                del a_set[next(iter(a_set))]
            a_set[tag] = False
    return offcore


class CoreModel:
    """One simulated core of the Table III processor."""

    __slots__ = (
        "core_id",
        "l3",
        "directory",
        "l1i",
        "l1d",
        "l2",
        "itlb",
        "dtlb",
        "branch",
        "_lfb",
        "_stream_trackers",
        "_last_fetch_line",
    )

    def __init__(
        self,
        core_id: int,
        l3: SetAssociativeCache,
        directory: CoherenceDirectory,
    ) -> None:
        self.core_id = core_id
        self.l3 = l3
        self.directory = directory
        self.l1i = SetAssociativeCache(CacheConfig("L1I", 32 * 1024, 4))
        self.l1d = SetAssociativeCache(CacheConfig("L1D", 32 * 1024, 8))
        self.l2 = SetAssociativeCache(CacheConfig("L2", 256 * 1024, 8))
        stlb = Tlb(TlbConfig("STLB", 512, 4))
        self.itlb = TlbHierarchy(Tlb(TlbConfig("ITLB", 64, 4)), stlb)
        self.dtlb = TlbHierarchy(Tlb(TlbConfig("DTLB", 64, 4)), stlb)
        self.branch = GsharePredictor(history_bits=12, history_use_bits=1)
        self._lfb: deque[int] = deque(maxlen=_LFB_DEPTH)
        self._stream_trackers: dict[int, int] = {}  # page -> last line seen
        self._last_fetch_line = -2  # I-side next-line prefetcher state

    def prewarm_spans(
        self,
        profile: PhaseProfile,
        private_budget_lines: int,
        install_shared_and_code: bool,
    ) -> dict[SetAssociativeCache, list[tuple[int, int]]]:
        """The ``(first_line, count)`` spans that pre-warm each cache, in
        install order (each span is installed coldest first, highest line
        first, by :meth:`SetAssociativeCache.fill`).

        A few thousand sampled operations cannot touch a multi-megabyte
        working set even once, so without pre-warming every first touch
        would read as a compulsory LLC miss and the measured rates would
        describe a cold start instead of the steady state the paper
        measures (it applies a ramp-up period for exactly this reason).
        Pre-warming installs, coldest-first so LRU order matches access
        frequency, the Zipf heads of the phase's regions:

        * the hot region into the L1D,
        * the warm-tier head into the L2 and the warm tier into the L3
          (up to ``private_budget_lines`` — the driver divides the L3
          between sibling cores so pre-warming cannot thrash itself),
        * the hot code head into the L1I and the L2,
        * the shared warm tier and the hot code head into the shared L3
          (once per socket: ``install_shared_and_code``).

        Every region has its own address range, so the spans of one
        cache never overlap.

        Args:
            profile: The phase (or union-of-phases) footprint to warm.
            private_budget_lines: L3 lines this core may fill with its
                private warm tier.
            install_shared_and_code: Include the node-shared regions;
                :meth:`Processor.prewarm_spans` enables this for one core
                only.
        """
        private_base = trace_mod.PRIVATE_DATA_BASE + self.core_id * trace_mod.PRIVATE_DATA_STRIDE
        hot_lines = trace_mod.HOT_REGION_BYTES >> LINE_SHIFT
        hot_first = private_base >> LINE_SHIFT

        warm_bytes = min(trace_mod.WARM_REGION_BYTES, profile.data_working_set)
        warm_first = (private_base + trace_mod.HOT_REGION_BYTES) >> LINE_SHIFT
        warm_lines = min(
            max(1, warm_bytes >> LINE_SHIFT), max(1, private_budget_lines)
        )
        l2_head = min(warm_lines, (self.l2.config.size // 2) >> LINE_SHIFT)

        # The private L1I / L2 hold this core's hot code head regardless
        # of who warms the shared L3.
        code_first = trace_mod.USER_CODE_BASE >> LINE_SHIFT
        code_lines = max(4, min(profile.code_footprint, 3 << 20) >> LINE_SHIFT)
        l1i_head = min(code_lines, self.l1i.config.size >> LINE_SHIFT)
        l2_code_head = min(code_lines, (self.l2.config.size // 2) >> LINE_SHIFT)

        l3_spans = [(warm_first, warm_lines)]
        if install_shared_and_code:
            if profile.shared_fraction > 0:
                shared_bytes = min(
                    trace_mod.SHARED_WARM_BYTES // 2, profile.shared_working_set
                )
                shared_first = trace_mod.SHARED_DATA_BASE >> LINE_SHIFT
                l3_spans.append((shared_first, max(1, shared_bytes >> LINE_SHIFT)))
            l3_spans.append((code_first, code_lines))
        return {
            self.l1d: [(hot_first, hot_lines)],
            self.l3: l3_spans,
            self.l2: [(warm_first, l2_head), (code_first, l2_code_head)],
            self.l1i: [(code_first, l1i_head)],
        }

    def run_compact(self, sample, discard: bool = False) -> SampleCounts:
        """Simulate one :class:`~repro.arch.batch.CompactSample`.

        Walks only the compacted interesting events (loads, stores,
        line-changing fetches), replays the branch stream through the
        predictor in one tight pass, applies the elided same-line fetches
        as batched counter increments, and computes the MLP integrals
        post hoc from the recorded fill deadlines.  Produces counters and
        microarchitectural state bit-identical to walking every
        synthesised op through the models' plain APIs
        (``SetAssociativeCache.access``, ``TlbHierarchy.translate``,
        ``GsharePredictor.predict_and_update``, the
        ``CoherenceDirectory`` methods) — the per-op test oracle in
        ``tests/arch/reference_engine.py`` pins the two together.

        The body is one flat fused loop: the per-event fetch and data
        work — including the cache fills, TLB/STLB walks, prefetch
        installs and the coherence directory's no-other-holder fast paths
        — is inlined with every shared structure and counter held in
        locals, flushed into the returned :class:`SampleCounts` (and the
        per-level ``.stats``) once.  Loads and stores share one data arm:
        a store installs or re-inserts its line dirty, reads for
        ownership where a load reads to share, and upgrades a line it
        hits in Shared; the load-only counters branch on it past an L1D
        miss.  Every event walks the full hierarchy: skipping the probes
        of a repeated page or line was measured to buy nothing (ROADMAP
        item 4), so the elided same-line fetches are the one shortcut.

        Args:
            sample: The compacted sample to simulate.
            discard: The caller will throw the counters away (a warm-up
                sample); skips the post-hoc MLP computation.
        """
        counts = SampleCounts()
        codes = sample.codes
        ticks = sample.ticks
        mem_lines = sample.mem_lines
        mem_pages = sample.mem_pages
        fetch_lines = sample.fetch_lines
        fetch_pages = sample.fetch_pages

        l1i = self.l1i
        l1i_sets, l1i_mask, l1i_assoc = l1i._sets, l1i._set_mask, l1i._assoc
        l1d = self.l1d
        l1d_sets, l1d_mask, l1d_assoc = l1d._sets, l1d._set_mask, l1d._assoc
        l2 = self.l2
        l2_sets, l2_mask, l2_assoc = l2._sets, l2._set_mask, l2._assoc
        # The private caches have power-of-two set counts: a line's tag
        # is ``line >> shift`` and its set ``line & mask``.
        l1i_shift = l1i_mask.bit_length()
        l1d_shift = l1d_mask.bit_length()
        l2_shift = l2_mask.bit_length()
        l3 = self.l3
        l3_sets, l3_nsets, l3_assoc = l3._sets, l3._num_sets, l3._assoc
        itlb = self.itlb
        itlb_l1 = itlb.l1
        itlb_sets, itlb_mask = itlb_l1._sets, itlb_l1._set_mask
        itlb_assoc = itlb_l1._assoc
        dtlb = self.dtlb
        dtlb_l1 = dtlb.l1
        dtlb_sets, dtlb_mask = dtlb_l1._sets, dtlb_l1._set_mask
        dtlb_assoc = dtlb_l1._assoc
        stlb = itlb.stlb  # one STLB backs both the I- and D-side
        stlb_sets, stlb_mask, stlb_assoc = stlb._sets, stlb._set_mask, stlb._assoc
        directory = self.directory
        dir_lines = directory._lines
        dir_lines_get = dir_lines.get
        dir_read_miss = directory.read_miss
        dir_write_miss = directory.write_miss
        dir_upgrade = directory.upgrade
        core_id = self.core_id
        lfb = self._lfb
        lfb_append = lfb.append
        trackers = self._stream_trackers
        trackers_get = trackers.get
        last_fetch_line = self._last_fetch_line
        prefetch_pair = _prefetch_pair

        r_none = SnoopResponse.NONE
        r_hit = SnoopResponse.HIT
        r_hite = SnoopResponse.HITE
        m_shared = MesiState.SHARED
        m_exclusive = MesiState.EXCLUSIVE
        m_modified = MesiState.MODIFIED

        # Local mirror of every counter the loop can touch; the per-level
        # ``.stats`` objects flush together with ``counts`` at the end.
        # Where a site increments both a stats field and a SampleCounts
        # field (e.g. every demand L2 hit), one local feeds both.
        l1i_hits = l1i_misses = l1i_evictions = 0
        l1d_hits = l1d_misses = l1d_evictions = 0
        l1d_writebacks = l1d_invalidations = 0
        l2_hits = l2_misses = l2_evictions = l2_writebacks = 0
        l3_hits = l3_misses = 0  # demand-visible (SampleCounts level)
        l3_stat_hits = l3_stat_misses = 0  # includes sibling-path fills
        l3_evictions = l3_writebacks = 0
        icache_l2_hits = icache_l3_hits = icache_mem = 0
        itlb_l1_hits = itlb_stlb_hits = itlb_walks = 0
        dtlb_l1_hits = dtlb_stlb_hits = dtlb_walks = 0
        load_hit_lfb = load_hit_l2 = load_hit_sibling = 0
        load_hit_l3 = load_llc_miss = 0
        offcore_data = offcore_code = offcore_rfo = offcore_writeback = 0
        snoop_hit = snoop_hite = snoop_hitm = 0

        push_ticks: list[int] = []
        push_deadlines: list[int] = []
        push_tick = push_ticks.append
        push_deadline = push_deadlines.append

        # A sample's first fetch is never elided (see repro.arch.batch):
        # the L1I it meets was left by the pre-warm or another sample, so
        # only *within* a sample is a same-line refetch provably
        # state-preserving.
        elided = sample.elided

        for code, tick, line, page4k, fline, fpage in zip(
            codes, ticks, mem_lines, mem_pages, fetch_lines, fetch_pages
        ):
            if code >= 4:  # EV_FETCH
                code -= 4
                tlb_set = itlb_sets[fpage & itlb_mask]
                if fpage in tlb_set:
                    tlb_set[fpage] = tlb_set.pop(fpage)
                    itlb_l1_hits += 1
                else:
                    stlb_set = stlb_sets[fpage & stlb_mask]
                    if fpage in stlb_set:
                        stlb_set[fpage] = stlb_set.pop(fpage)
                        itlb_stlb_hits += 1
                    else:
                        itlb_walks += 1
                        if len(stlb_set) >= stlb_assoc:
                            del stlb_set[next(iter(stlb_set))]
                        stlb_set[fpage] = None
                    if len(tlb_set) >= itlb_assoc:
                        del tlb_set[next(iter(tlb_set))]
                    tlb_set[fpage] = None
                cache_set = l1i_sets[fline & l1i_mask]
                tag = fline >> l1i_shift
                if tag in cache_set:
                    l1i_hits += 1
                    cache_set[tag] = cache_set.pop(tag)
                    hit = True
                else:
                    l1i_misses += 1
                    if len(cache_set) >= l1i_assoc:
                        del cache_set[next(iter(cache_set))]
                        l1i_evictions += 1
                    cache_set[tag] = False
                    hit = False
                if fline == last_fetch_line + 1:
                    # Next-line prefetcher (install_line: silent victims).
                    ahead = fline + 1
                    a_set = l1i_sets[ahead & l1i_mask]
                    tag = ahead >> l1i_shift
                    if tag in a_set:
                        a_set[tag] = a_set.pop(tag)
                    else:
                        if len(a_set) >= l1i_assoc:
                            del a_set[next(iter(a_set))]
                        a_set[tag] = False
                    a_set = l2_sets[ahead & l2_mask]
                    tag = ahead >> l2_shift
                    if tag in a_set:
                        a_set[tag] = a_set.pop(tag)
                    else:
                        if len(a_set) >= l2_assoc:
                            del a_set[next(iter(a_set))]
                        a_set[tag] = False
                    a_set = l3_sets[ahead % l3_nsets]
                    tag = ahead // l3_nsets
                    if tag in a_set:
                        a_set[tag] = a_set.pop(tag)
                    else:
                        if len(a_set) >= l3_assoc:
                            del a_set[next(iter(a_set))]
                        a_set[tag] = False
                last_fetch_line = fline
                if not hit:
                    l2_set = l2_sets[fline & l2_mask]
                    tag = fline >> l2_shift
                    if tag in l2_set:
                        l2_set[tag] = l2_set.pop(tag)
                        l2_hits += 1
                        icache_l2_hits += 1
                    else:
                        l2_misses += 1
                        offcore_code += 1
                        if len(l2_set) >= l2_assoc:
                            victim = next(iter(l2_set))
                            vdirty = l2_set.pop(victim)
                            victim = victim << l2_shift | fline & l2_mask
                            l2_evictions += 1
                            if vdirty:
                                l2_writebacks += 1
                                offcore_writeback += 1
                            v_set = l1d_sets[victim & l1d_mask]
                            vtag = victim >> l1d_shift
                            if vtag in v_set:
                                del v_set[vtag]
                                l1d_invalidations += 1
                            holders = dir_lines_get(victim)
                            if holders is not None and core_id in holders:
                                del holders[core_id]
                                if not holders:
                                    del dir_lines[victim]
                        l2_set[tag] = False
                        l3_set = l3_sets[fline % l3_nsets]
                        tag = fline // l3_nsets
                        if tag in l3_set:
                            l3_stat_hits += 1
                            l3_set[tag] = l3_set.pop(tag)
                            icache_l3_hits += 1
                            l3_hits += 1
                        else:
                            l3_stat_misses += 1
                            if len(l3_set) >= l3_assoc:
                                vdirty = l3_set.pop(next(iter(l3_set)))
                                l3_evictions += 1
                                if vdirty:
                                    l3_writebacks += 1
                            l3_set[tag] = False
                            l3_misses += 1
                            icache_mem += 1
            if code == 2:  # EV_NONE: the event is a fetch alone
                continue
            # EV_LOAD or EV_STORE.  A store writes the line: it installs
            # or re-inserts it dirty wherever it lands, and it reads for
            # ownership (RFO) where a load reads to share.
            store = code == 1
            # Stream prefetcher: a step to the next line of a tracked page
            # installs the two lines after it.
            last = trackers_get(page4k)
            trackers[page4k] = line
            if last is None:
                if len(trackers) > _STREAM_TRACKERS:
                    trackers.pop(next(iter(trackers)))
            elif line == last + 1:
                offcore_data += prefetch_pair(
                    line,
                    l1d_sets, l1d_mask, l1d_assoc,
                    l2_sets, l2_mask, l2_assoc,
                    l3_sets, l3_nsets, l3_assoc,
                    l1d_shift, l2_shift,
                )
            tlb_set = dtlb_sets[page4k & dtlb_mask]
            if page4k in tlb_set:
                tlb_set[page4k] = tlb_set.pop(page4k)
                dtlb_l1_hits += 1
            else:
                stlb_set = stlb_sets[page4k & stlb_mask]
                if page4k in stlb_set:
                    stlb_set[page4k] = stlb_set.pop(page4k)
                    dtlb_stlb_hits += 1
                else:
                    dtlb_walks += 1
                    if len(stlb_set) >= stlb_assoc:
                        del stlb_set[next(iter(stlb_set))]
                    stlb_set[page4k] = None
                if len(tlb_set) >= dtlb_assoc:
                    del tlb_set[next(iter(tlb_set))]
                tlb_set[page4k] = None
            cache_set = l1d_sets[line & l1d_mask]
            tag = line >> l1d_shift
            if tag in cache_set:
                l1d_hits += 1
                cache_set[tag] = cache_set.pop(tag) or store
            else:
                l1d_misses += 1
                if len(cache_set) >= l1d_assoc:
                    victim = next(iter(cache_set))
                    vdirty = cache_set.pop(victim)
                    l1d_evictions += 1
                    if vdirty:
                        l1d_writebacks += 1
                        victim = victim << l1d_shift | line & l1d_mask
                        # Dirty L1D victim: absorbed by the L2, or escapes.
                        v_set = l2_sets[victim & l2_mask]
                        vtag = victim >> l2_shift
                        if vtag in v_set:
                            v_set[vtag] = True
                        else:
                            offcore_writeback += 1
                            holders = dir_lines_get(victim)
                            if holders is not None and core_id in holders:
                                del holders[core_id]
                                if not holders:
                                    del dir_lines[victim]
                cache_set[tag] = store
                if line in lfb:
                    # Merges into an in-flight fill (a store's too).
                    load_hit_lfb += 1
                    continue
                l2_set = l2_sets[line & l2_mask]
                tag = line >> l2_shift
                if tag in l2_set:
                    l2_set[tag] = l2_set.pop(tag) or store
                    l2_hits += 1
                    if not store:
                        load_hit_l2 += 1
                        continue
                else:
                    l2_misses += 1
                    if store:
                        offcore_rfo += 1
                    else:
                        offcore_data += 1
                    if len(l2_set) >= l2_assoc:
                        victim = next(iter(l2_set))
                        vdirty = l2_set.pop(victim)
                        victim = victim << l2_shift | line & l2_mask
                        l2_evictions += 1
                        if vdirty:
                            l2_writebacks += 1
                            offcore_writeback += 1
                        v_set = l1d_sets[victim & l1d_mask]
                        vtag = victim >> l1d_shift
                        if vtag in v_set:
                            del v_set[vtag]
                            l1d_invalidations += 1
                        holders = dir_lines_get(victim)
                        if holders is not None and core_id in holders:
                            del holders[core_id]
                            if not holders:
                                del dir_lines[victim]
                    l2_set[tag] = store
                    lfb_append(line)
                    holders = dir_lines_get(line)
                    if holders is None:
                        # Directory fast path: no holders, response NONE;
                        # the requester installs Modified or Exclusive.
                        dir_lines[line] = {
                            core_id: m_modified if store else m_exclusive
                        }
                        response = r_none
                    elif store:
                        response = dir_write_miss(core_id, line)
                    else:
                        response = dir_read_miss(core_id, line)
                    # Demand fills and cache-to-cache transfers alike
                    # install in the L3.
                    l3_set = l3_sets[line % l3_nsets]
                    tag = line // l3_nsets
                    if tag in l3_set:
                        l3_stat_hits += 1
                        l3_set[tag] = l3_set.pop(tag) or store
                        hit = True
                    else:
                        l3_stat_misses += 1
                        if len(l3_set) >= l3_assoc:
                            vdirty = l3_set.pop(next(iter(l3_set)))
                            l3_evictions += 1
                            if vdirty:
                                l3_writebacks += 1
                        l3_set[tag] = store
                        hit = False
                    if response is not r_none:
                        if response is r_hit:
                            snoop_hit += 1
                        elif response is r_hite:
                            snoop_hite += 1
                        else:  # HITM
                            snoop_hitm += 1
                        if not store:
                            load_hit_sibling += 1
                        service = _MLP_SERVICE_SIBLING
                    elif hit:
                        l3_hits += 1
                        if not store:
                            load_hit_l3 += 1
                        service = _MLP_SERVICE_L3
                    else:
                        l3_misses += 1
                        if not store:
                            load_llc_miss += 1
                        service = _MLP_SERVICE_MEM
                    push_tick(tick)
                    push_deadline(tick + service)
                    continue
            # A store hit in the L1D or the L2.
            if store:
                holders = dir_lines_get(line)
                if holders is not None:
                    state = holders.get(core_id)
                    if state is m_exclusive:
                        holders[core_id] = m_modified  # silent E -> M
                    elif state is m_shared:
                        # Upgrade.  The directory never grants Shared beside
                        # an Exclusive or Modified copy (``read_miss``
                        # demotes them, E is granted only to a sole holder,
                        # and ``write_miss``/``upgrade`` drop every other
                        # holder), so the others answer HIT or nothing.
                        if dir_upgrade(core_id, line) is r_hit:
                            snoop_hit += 1
                        offcore_rfo += 1

        self._last_fetch_line = last_fetch_line

        # The branch stream trains the predictor in one tight pass — its
        # state is independent of the memory hierarchy, so replay order
        # relative to the event loop is immaterial.
        mispredicts = self.branch.predict_batch(
            sample.branch_pcs, sample.branch_takens
        )

        # Flush the locals: elided fetches are guaranteed L1I + ITLB-L1
        # hits (see repro.arch.batch), applied in one batched increment.
        l1i_stats = l1i.stats
        l1i_stats.hits += l1i_hits + elided
        l1i_stats.misses += l1i_misses
        l1i_stats.evictions += l1i_evictions
        l1d_stats = l1d.stats
        l1d_stats.hits += l1d_hits
        l1d_stats.misses += l1d_misses
        l1d_stats.evictions += l1d_evictions
        l1d_stats.writebacks += l1d_writebacks
        l1d_stats.invalidations += l1d_invalidations
        l2_stats = l2.stats
        l2_stats.hits += l2_hits
        l2_stats.misses += l2_misses
        l2_stats.evictions += l2_evictions
        l2_stats.writebacks += l2_writebacks
        l3_stats = l3.stats
        l3_stats.hits += l3_stat_hits
        l3_stats.misses += l3_stat_misses
        l3_stats.evictions += l3_evictions
        l3_stats.writebacks += l3_writebacks
        itlb_stats = itlb.stats
        itlb_stats.l1_hits += itlb_l1_hits + elided
        itlb_stats.stlb_hits += itlb_stlb_hits
        itlb_stats.walks += itlb_walks
        itlb_stats.walk_cycles += itlb_walks * _PAGE_WALK_CYCLES
        dtlb_stats = dtlb.stats
        dtlb_stats.l1_hits += dtlb_l1_hits
        dtlb_stats.stlb_hits += dtlb_stlb_hits
        dtlb_stats.walks += dtlb_walks
        dtlb_stats.walk_cycles += dtlb_walks * _PAGE_WALK_CYCLES

        counts.l1i_accesses = l1i_hits + l1i_misses + elided
        counts.l1i_hits = l1i_hits + elided
        counts.l1i_misses = l1i_misses
        counts.icache_l2_hits = icache_l2_hits
        counts.icache_l3_hits = icache_l3_hits
        counts.icache_mem = icache_mem
        counts.itlb_stlb_hits = itlb_stlb_hits
        counts.itlb_walks = itlb_walks
        counts.itlb_walk_cycles = itlb_walks * _PAGE_WALK_CYCLES
        counts.dtlb_stlb_hits = dtlb_stlb_hits
        counts.dtlb_walks = dtlb_walks
        counts.dtlb_walk_cycles = dtlb_walks * _PAGE_WALK_CYCLES
        counts.load_hit_lfb = load_hit_lfb
        counts.load_hit_l2 = load_hit_l2
        counts.load_hit_sibling = load_hit_sibling
        counts.load_hit_l3 = load_hit_l3
        counts.load_llc_miss = load_llc_miss
        counts.l2_hits = l2_hits
        counts.l2_misses = l2_misses
        counts.l3_hits = l3_hits
        counts.l3_misses = l3_misses
        counts.offcore_data = offcore_data
        counts.offcore_code = offcore_code
        counts.offcore_rfo = offcore_rfo
        counts.offcore_writeback = offcore_writeback
        counts.snoop_hit = snoop_hit
        counts.snoop_hite = snoop_hite
        counts.snoop_hitm = snoop_hitm

        tallies = sample.tallies
        counts.instructions = sample.n_ops
        counts.kernel_instructions = tallies.kernel
        counts.loads = tallies.loads
        counts.stores = tallies.stores
        counts.branches_retired = tallies.branches
        counts.branch_mispredicts = mispredicts
        counts.int_ops = tallies.int_alu
        counts.x87_ops = tallies.fp_x87
        counts.sse_ops = tallies.fp_sse
        if not discard:
            counts.mlp_sum, counts.mlp_active = mlp_from_deadlines(
                push_ticks, push_deadlines, sample.n_ops
            )
        return counts

    def reset(self) -> None:
        """Flush all private state (between workloads)."""
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()
        self.itlb.l1.flush()
        self.dtlb.l1.flush()
        self.itlb.stlb.flush()
        self.branch.reset()
        self._lfb.clear()
        self._stream_trackers.clear()
        self._last_fetch_line = -2
