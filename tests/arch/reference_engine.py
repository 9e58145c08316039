"""Per-op reference simulation: the test oracle for the shipping engine.

The shipping engine (:func:`repro.arch.batch.plan_workload` feeding
:meth:`repro.arch.core_model.CoreModel.run_compact`) compacts each sample
to the events that do work and runs them through one fused loop with
every model's hot path inlined.  This module is the plain reading of the
same model: the pre-warm installs one line at a time through
:meth:`SetAssociativeCache.install_line`, every synthesised operation
walks the hierarchy one at a time through each model's public API —
:meth:`SetAssociativeCache.access`, :meth:`TlbHierarchy.translate`,
:meth:`GsharePredictor.predict_and_update` and the
:class:`CoherenceDirectory` methods — and the MLP integral is counted
tick by tick with a heap.  Nothing here is fast; all of it should
be obviously right.

The equivalence tests (``test_batch_equivalence.py``) assert that the
shipping engine matches this oracle bit for bit: raw-event totals and
the final RNG state.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.arch.cache import CacheAccess, SetAssociativeCache
from repro.arch.coherence import MesiState, SnoopResponse
from repro.arch.core_model import (
    _MLP_SERVICE_L3,
    _MLP_SERVICE_MEM,
    _MLP_SERVICE_SIBLING,
    _STREAM_TRACKERS,
    LINE_SHIFT,
    CoreModel,
)
from repro.arch.pipeline import SampleCounts
from repro.arch.processor import Processor, _merge_counts
from repro.arch.tlb import TlbHierarchy, TlbOutcome
from repro.arch.trace import (
    OP_BRANCH,
    OP_CODE_MASK,
    OP_FETCH_FLAG,
    OP_LOAD,
    OP_STORE,
    PhaseProfile,
    synthesize_columns,
)
from repro.errors import ConfigurationError
from repro.obs.timeline import current_timeline

__all__ = ["install_spans", "run_sample", "run_workload", "start_workload"]


def _translate(tlb: TlbHierarchy, addr: int) -> tuple[bool, bool]:
    """Translate ``addr``; returns (was an STLB hit, needed a page walk)."""
    outcome = tlb.translate(addr).outcome
    return outcome is TlbOutcome.STLB_HIT, outcome is TlbOutcome.PAGE_WALK


def _record_snoop(response: SnoopResponse, counts: SampleCounts) -> None:
    if response is SnoopResponse.HIT:
        counts.snoop_hit += 1
    elif response is SnoopResponse.HITE:
        counts.snoop_hite += 1
    elif response is SnoopResponse.HITM:
        counts.snoop_hitm += 1


def _l1d_victim(core: CoreModel, access: CacheAccess, counts: SampleCounts) -> None:
    """A dirty L1D victim is absorbed by the L2, or escapes the core."""
    if access.writeback and not core.l2.set_dirty(access.evicted_line):
        counts.offcore_writeback += 1
        core.directory.evicted(core.core_id, access.evicted_line)


def _l2_victim(core: CoreModel, access: CacheAccess, counts: SampleCounts) -> None:
    """An L2 victim leaves the private hierarchy (inclusion with L1D)."""
    if access.evicted_line is None:
        return
    if access.writeback:
        counts.offcore_writeback += 1
    core.l1d.invalidate_line(access.evicted_line)
    core.directory.evicted(core.core_id, access.evicted_line)


def _fetch(core: CoreModel, pc: int, counts: SampleCounts) -> None:
    """Fetch the 16-byte block holding ``pc`` through L1I / L2 / L3,
    with a next-line prefetcher on sequential line transitions."""
    counts.l1i_accesses += 1
    stlb_hit, walk = _translate(core.itlb, pc)
    counts.itlb_stlb_hits += stlb_hit
    counts.itlb_walks += walk
    counts.itlb_walk_cycles += walk * TlbHierarchy.PAGE_WALK_CYCLES
    l1i = core.l1i.access(pc)
    line = l1i.line_addr
    if line == core._last_fetch_line + 1:
        for cache in (core.l1i, core.l2, core.l3):
            cache.install_line(line + 1)
    core._last_fetch_line = line
    if l1i.hit:
        counts.l1i_hits += 1
        return
    counts.l1i_misses += 1
    l2 = core.l2.access(pc)
    if l2.hit:
        counts.icache_l2_hits += 1
        counts.l2_hits += 1
        return
    counts.l2_misses += 1
    counts.offcore_code += 1
    _l2_victim(core, l2, counts)
    if core.l3.access(pc).hit:
        counts.icache_l3_hits += 1
        counts.l3_hits += 1
    else:
        counts.l3_misses += 1
        counts.icache_mem += 1


def _data_access_prologue(core: CoreModel, addr: int, counts: SampleCounts) -> None:
    """Stream-prefetcher probe, then the DTLB translation.

    Each 4 KiB page has a stream tracker remembering its last line; a
    step to the next line installs the two lines after it throughout
    the hierarchy (off-core traffic unless already L2-resident).
    """
    line = addr >> LINE_SHIFT
    page4k = line >> 6
    trackers = core._stream_trackers
    last = trackers.get(page4k)
    trackers[page4k] = line
    if last is None:
        if len(trackers) > _STREAM_TRACKERS:
            trackers.pop(next(iter(trackers)))
    elif line == last + 1:
        for ahead in (line + 1, line + 2):
            if not core.l2.line_resident(ahead):
                counts.offcore_data += 1
            for cache in (core.l1d, core.l2, core.l3):
                cache.install_line(ahead)
    stlb_hit, walk = _translate(core.dtlb, addr)
    counts.dtlb_stlb_hits += stlb_hit
    counts.dtlb_walks += walk
    counts.dtlb_walk_cycles += walk * TlbHierarchy.PAGE_WALK_CYCLES


def _write_hit(core: CoreModel, line: int, counts: SampleCounts) -> None:
    """A store hitting a line already in the private hierarchy."""
    state = core.directory.state(core.core_id, line)
    if state is MesiState.SHARED:
        # Upgrade: invalidate other sharers, goes on the bus.
        _record_snoop(core.directory.upgrade(core.core_id, line), counts)
        counts.offcore_rfo += 1
    elif state is MesiState.EXCLUSIVE:
        core.directory.write_hit_owned(core.core_id, line)


def _load(
    core: CoreModel,
    addr: int,
    tick: int,
    outstanding: list[int],
    counts: SampleCounts,
) -> None:
    _data_access_prologue(core, addr, counts)
    l1d = core.l1d.access(addr)
    if l1d.hit:
        return
    _l1d_victim(core, l1d, counts)
    line = l1d.line_addr
    if line in core._lfb:
        counts.load_hit_lfb += 1
        return
    l2 = core.l2.access(addr)
    if l2.hit:
        counts.load_hit_l2 += 1
        counts.l2_hits += 1
        return
    counts.l2_misses += 1
    counts.offcore_data += 1
    _l2_victim(core, l2, counts)
    core._lfb.append(line)
    response = core.directory.read_miss(core.core_id, line)
    if response is not SnoopResponse.NONE:
        _record_snoop(response, counts)
        counts.load_hit_sibling += 1
        heapq.heappush(outstanding, tick + _MLP_SERVICE_SIBLING)
        core.l3.access(addr)  # cache-to-cache transfers also fill the L3
        return
    if core.l3.access(addr).hit:
        counts.load_hit_l3 += 1
        counts.l3_hits += 1
        heapq.heappush(outstanding, tick + _MLP_SERVICE_L3)
    else:
        counts.l3_misses += 1
        counts.load_llc_miss += 1
        heapq.heappush(outstanding, tick + _MLP_SERVICE_MEM)


def _store(
    core: CoreModel,
    addr: int,
    tick: int,
    outstanding: list[int],
    counts: SampleCounts,
) -> None:
    _data_access_prologue(core, addr, counts)
    l1d = core.l1d.access(addr, True)
    line = l1d.line_addr
    if l1d.hit:
        _write_hit(core, line, counts)
        return
    _l1d_victim(core, l1d, counts)
    if line in core._lfb:
        counts.load_hit_lfb += 1  # stores merging into an in-flight fill
        return
    l2 = core.l2.access(addr, True)
    if l2.hit:
        counts.l2_hits += 1
        _write_hit(core, line, counts)
        return
    counts.l2_misses += 1
    counts.offcore_rfo += 1
    _l2_victim(core, l2, counts)
    core._lfb.append(line)
    response = core.directory.write_miss(core.core_id, line)
    if response is not SnoopResponse.NONE:
        _record_snoop(response, counts)
        heapq.heappush(outstanding, tick + _MLP_SERVICE_SIBLING)
        core.l3.access(addr, True)
        return
    if core.l3.access(addr, True).hit:
        counts.l3_hits += 1
        heapq.heappush(outstanding, tick + _MLP_SERVICE_L3)
    else:
        counts.l3_misses += 1
        heapq.heappush(outstanding, tick + _MLP_SERVICE_MEM)


def run_sample(
    core: CoreModel, profile: PhaseProfile, n_ops: int, rng: np.random.Generator
) -> SampleCounts:
    """Synthesise ``n_ops`` ops of ``profile`` and simulate them one by one.

    Returns the raw (unscaled) sample counters, like
    :meth:`CoreModel.run_compact` does for the same synthesised sample.
    """
    counts = SampleCounts()
    cols = synthesize_columns(profile, n_ops, core.core_id, rng)
    addresses = cols.addresses.tolist()
    takens = cols.takens.tolist()
    pcs = cols.pcs.tolist()
    outstanding: list[int] = []
    for tick, code in enumerate(cols.codes.tolist()):
        while outstanding and outstanding[0] <= tick:
            heapq.heappop(outstanding)
        if outstanding:
            counts.mlp_active += 1
            counts.mlp_sum += len(outstanding)
        if code & OP_FETCH_FLAG:
            _fetch(core, pcs[tick], counts)
        code &= OP_CODE_MASK
        if code == OP_LOAD:
            _load(core, addresses[tick], tick, outstanding, counts)
        elif code == OP_STORE:
            _store(core, addresses[tick], tick, outstanding, counts)
        elif code == OP_BRANCH:
            if not core.branch.predict_and_update(addresses[tick], takens[tick]):
                counts.branch_mispredicts += 1
    tallies = cols.tallies
    counts.instructions = n_ops
    counts.kernel_instructions = tallies.kernel
    counts.loads = tallies.loads
    counts.stores = tallies.stores
    counts.branches_retired = tallies.branches
    counts.int_ops = tallies.int_alu
    counts.x87_ops = tallies.fp_x87
    counts.sse_ops = tallies.fp_sse
    return counts


def install_spans(cache: SetAssociativeCache, spans) -> None:
    """The per-line counterpart of :meth:`SetAssociativeCache.fill`."""
    for first_line, count in spans:
        for line in range(first_line + count - 1, first_line - 1, -1):
            cache.install_line(line)


def start_workload(
    processor: Processor, profiles: list[PhaseProfile], active_cores: int
) -> None:
    """The per-line counterpart of :meth:`Processor.start_workload`: flush,
    then install every pre-warm span one line at a time, coldest first."""
    processor.reset()
    for cache, spans in processor.prewarm_spans(profiles, active_cores).items():
        install_spans(cache, spans)


def run_workload(
    processor: Processor,
    profiles: list[PhaseProfile],
    rng: np.random.Generator,
    active_cores: int = 4,
    ops_per_core: int = 8000,
    warmup_fraction: float = 0.3,
) -> dict[str, float]:
    """The per-op counterpart of :meth:`Processor.run_workload`.

    Same protocol — one union pre-warm, then per window each core's
    discarded warm-up sample followed by each core's measured sample —
    but the pre-warm installs line by line and each window's ops are
    drawn from ``rng`` just before they run.
    """
    if not profiles:
        raise ConfigurationError("run_workload needs at least one phase profile")
    start_workload(processor, profiles, active_cores)
    cores = processor.cores[:active_cores]
    warmup_ops = max(1, int(ops_per_core * warmup_fraction))
    sampler = current_timeline()
    totals: dict[str, float] = {}
    for window, profile in enumerate(profiles):
        for core in cores:
            run_sample(core, profile, warmup_ops, rng)  # ramp-up, discarded
        total = SampleCounts()
        for core in cores:
            _merge_counts(total, run_sample(core, profile, ops_per_core, rng))
        events = processor.phase_events(profile, total)
        if sampler is not None:
            sampler.sim_window(window, profile.name, profile.instructions, events)
        for name, value in events.items():
            totals[name] = totals.get(name, 0.0) + value
    return totals
