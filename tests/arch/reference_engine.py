"""Per-op reference simulation: the test oracle for the shipping engine.

The shipping engine (:func:`repro.arch.batch.plan_workload` feeding
:meth:`repro.arch.core_model.CoreModel.run_compact`) synthesises and
compacts all of a phase's samples in one set of array passes, then runs
each sample's events through one fused loop with every model's hot path
inlined.  This module is the plain reading of the same model: each
sample is synthesised on its own (:func:`synthesize_columns`, the op
class drawn with ``rng.choice``) and compacted on its own
(:func:`synthesize_compact`, :func:`plan_workload`); the pre-warm
installs one line at a time through
:meth:`SetAssociativeCache.install_line`, every synthesised operation
walks the hierarchy one at a time through each model's public API —
:meth:`SetAssociativeCache.access`, :meth:`TlbHierarchy.translate`,
:meth:`GsharePredictor.predict_and_update` and the
:class:`CoherenceDirectory` methods — and the MLP integral is counted
tick by tick with a heap.  Nothing here is fast; all of it should
be obviously right.

The equivalence tests (``test_batch_equivalence.py`` for whole runs,
``test_plan_oracle.py`` for every planned sample) assert that the
shipping engine matches this oracle bit for bit: raw-event totals,
sample fields and the final RNG state.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

import numpy as np

from repro.arch.batch import EV_FETCH, EV_NONE, CompactSample, PhasePlan
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
from repro.arch.tlb import PAGE_SHIFT, TlbHierarchy, TlbOutcome
from repro.arch.trace import (
    _KERNEL_BURST_MEAN,
    _KERNEL_REUSE_SKEW,
    BRANCH_SITE_STRIDE,
    HOT_REGION_BYTES,
    KERNEL_CODE_BASE,
    KERNEL_CODE_FOOTPRINT,
    OP_BRANCH,
    OP_CODE_MASK,
    OP_FETCH_FLAG,
    OP_INT_ALU,
    OP_FP_SSE,
    OP_FP_X87,
    OP_LOAD,
    OP_STORE,
    PRIVATE_DATA_BASE,
    PRIVATE_DATA_STRIDE,
    SHARED_DATA_BASE,
    SHARED_WARM_BYTES,
    USER_CODE_BASE,
    WARM_REGION_BYTES,
    InstructionMix,
    OpTallies,
    PhaseProfile,
)
from repro.errors import ConfigurationError
from repro.obs.timeline import current_timeline

__all__ = [
    "StreamColumns",
    "install_spans",
    "plan_workload",
    "run_sample",
    "run_workload",
    "set_lines",
    "start_workload",
    "synthesize_columns",
    "synthesize_compact",
]


# ---------------------------------------------------------------------------
# Per-sample synthesis
# ---------------------------------------------------------------------------


def _kernel_bursts(
    kernel_fraction: float, n_ops: int, rng: np.random.Generator
) -> np.ndarray:
    """Ring-0 flags as alternating exponential user/kernel bursts.

    The long-run kernel share equals ``kernel_fraction`` while execution
    switches address spaces only every few hundred instructions, as real
    syscall-heavy code does.
    """
    if kernel_fraction <= 0.0:
        return np.zeros(n_ops, dtype=bool)
    if kernel_fraction >= 1.0:
        return np.ones(n_ops, dtype=bool)
    mean_user = _KERNEL_BURST_MEAN * (1.0 - kernel_fraction) / kernel_fraction
    flags = np.empty(n_ops, dtype=bool)
    position = 0
    in_kernel = False
    while position < n_ops:
        mean = _KERNEL_BURST_MEAN if in_kernel else mean_user
        run = 1 + int(rng.exponential(mean))
        flags[position : position + run] = in_kernel
        position += run
        in_kernel = not in_kernel
    return flags




def _mix_probabilities(mix: InstructionMix) -> np.ndarray:
    """Normalised op-class distribution table for ``mix``."""
    _, probabilities = zip(*mix.as_probabilities())
    probs = np.asarray(probabilities, dtype=float)
    return probs / probs.sum()


def _chain_offsets(
    member: np.ndarray,
    jump: np.ndarray,
    targets: np.ndarray,
    span: int,
    n_ops: int,
) -> np.ndarray:
    """Vectorised fetch-offset chain for one address space.

    Ops where ``member`` is set belong to this chain (user or kernel).  A
    jump moves the chain to ``targets[i]``; a sequential op advances the
    previous chain offset by 4 modulo ``span``.  Equivalent to threading a
    single ``pc`` variable through the ops one at a time, but computed as
    a handful of array passes: the offset at op ``i`` is
    ``(target_of_last_jump + 4 * ops_since_that_jump) % span`` (with a
    virtual offset-0 "jump" before the first op).
    """
    chain_pos = np.cumsum(member) - 1
    jump_here = member & jump
    indices = np.arange(n_ops)
    last_jump = np.maximum.accumulate(np.where(jump_here, indices, -1))
    clamped = np.maximum(last_jump, 0)
    has_jump = last_jump >= 0
    base = np.where(has_jump, targets[clamped], 0)
    base_pos = np.where(has_jump, chain_pos[clamped], -1)
    return (base + 4 * (chain_pos - base_pos)) % span




class StreamColumns(NamedTuple):
    """A synthesised sample as parallel numpy columns.

    :func:`synthesize_compact` reduces them to a
    :class:`~repro.arch.batch.CompactSample`.

    Attributes:
        codes: Per instruction, the ``OP_*`` operation code plus
            :data:`OP_FETCH_FLAG` when this op starts a new 16-byte fetch
            block (mask with :data:`OP_CODE_MASK` for the bare code).
        addresses: Byte address (LOAD/STORE), branch-site PC (BRANCH), or 0.
        kernels: Ring-0 flag per instruction.
        takens: Branch outcome (False for non-branches).
        shareds: Whether a LOAD/STORE targets the shared data region.
        pcs: Fetch PC per instruction.
        tallies: Per-class op counts, computed vectorised so no
            simulation loop tallies per op.
    """

    codes: np.ndarray
    addresses: np.ndarray
    kernels: np.ndarray
    takens: np.ndarray
    shareds: np.ndarray
    pcs: np.ndarray
    tallies: OpTallies




def synthesize_columns(
    profile: PhaseProfile,
    n_ops: int,
    core_id: int,
    rng: np.random.Generator,
) -> StreamColumns:
    """Expand ``profile`` into ``n_ops`` sampled operations for one core.

    Returns:
        A :class:`StreamColumns` of parallel numpy columns (op codes,
        addresses, ring-0 flags, branch outcomes, shared flags, fetch
        PCs).

    The synthesis is deterministic given ``rng``'s state.  Branches come from a set of
    *branch sites* (stable PCs spaced through the code region,
    Zipf-weighted like the code itself) so the predictor can actually
    train on them; each site has a fixed taken-bias drawn from
    ``branch_entropy`` (low entropy = strongly biased = predictable).

    Every column is computed as vectorised numpy passes — the random
    draws are batched in a fixed order and the sequential state
    (streaming cursor, user/kernel fetch-PC chains) is expressed as
    cumulative sums and forward fills.
    """
    if n_ops <= 0:
        raise ConfigurationError("n_ops must be positive")

    rand = lambda: rng.random(n_ops)  # noqa: E731

    probs = _mix_probabilities(profile.mix)
    # The mix order matches the OP_* codes, so a draw is an op code.
    codes = rng.choice(len(probs), size=n_ops, p=probs)
    kernel_flags = _kernel_bursts(profile.kernel_fraction, n_ops, rng)

    # Branch sites: stable PCs with fixed biases.  The number of distinct
    # sites grows with the code footprint (bigger binaries have more
    # static branches competing for predictor state).
    n_sites = int(np.clip(profile.code_footprint // 16384, 12, 64))
    half_spread = 0.5 * (1.0 - profile.branch_entropy)
    site_bias = np.where(rng.random(n_sites) < 0.5, 0.5 - half_spread, 0.5 + half_spread)
    # Hot sites execute most often; site popularity is even more skewed
    # than code reuse (inner loops re-run their branches constantly).
    sites = np.minimum(
        (n_sites * rand() ** (profile.code_reuse_skew + 2.0)).astype(int),
        n_sites - 1,
    )
    branch_taken = rand() < site_bias[sites]

    # Code side: jump-vs-sequential decisions and Zipf jump offsets.
    is_jump = rand() >= profile.code_locality
    user_span = max(256, profile.code_footprint)
    user_targets = (
        user_span * rand() ** profile.code_reuse_skew
    ).astype(int) & ~3
    kernel_targets = (
        KERNEL_CODE_FOOTPRINT * rand() ** _KERNEL_REUSE_SKEW
    ).astype(int) & ~3

    # Data side: region choice and Zipf offsets, all pre-drawn.
    private_span = max(64, profile.data_working_set)
    shared_span = max(64, profile.shared_working_set)
    u_region = rand()
    shared_pick = u_region < profile.shared_fraction
    hot_pick = rand() < profile.hot_data_fraction
    stream_pick = rand() < profile.data_streaming_fraction
    # Two-tier reuse: most non-streaming references land in a warm region
    # (hash-table heads, live buffers); the tail sweeps the full span.
    warm_private = min(WARM_REGION_BYTES, private_span)
    warm_shared = min(SHARED_WARM_BYTES, shared_span)
    shared_warm_pick = rand() >= profile.shared_tail_fraction
    shared_spans = np.where(shared_warm_pick, warm_shared, shared_span)
    shared_offsets = (
        shared_spans * rand() ** profile.shared_reuse_skew
    ).astype(int) & ~7
    hot_offsets = rng.integers(0, HOT_REGION_BYTES, size=n_ops) & ~7
    warm_pick = rand() >= profile.data_tail_fraction
    private_spans = np.where(warm_pick, warm_private, private_span)
    private_offsets = (
        private_spans * rand() ** profile.data_reuse_skew
    ).astype(int) & ~7
    demote_store = rand() > profile.shared_write_fraction

    # Fetch PCs: two independent sequential-with-jumps chains (user and
    # kernel address spaces), interleaved by the ring-0 burst flags.
    user_offsets = _chain_offsets(
        ~kernel_flags, is_jump, user_targets, user_span, n_ops
    )
    kernel_offsets = _chain_offsets(
        kernel_flags, is_jump, kernel_targets, KERNEL_CODE_FOOTPRINT, n_ops
    )
    pcs = np.where(
        kernel_flags,
        KERNEL_CODE_BASE + kernel_offsets,
        USER_CODE_BASE + user_offsets,
    )

    # Memory addresses by region, then branch-site PCs, then demotion of
    # most shared stores to loads (shared traffic is read-dominated; all
    # cores draw from the same skewed head, so hot shared lines really
    # are resident in several private hierarchies).
    private_base = PRIVATE_DATA_BASE + core_id * PRIVATE_DATA_STRIDE
    data_base = private_base + HOT_REGION_BYTES
    is_mem = codes <= OP_STORE
    shared_sel = is_mem & shared_pick
    hot_sel = is_mem & ~shared_pick & hot_pick
    stream_sel = is_mem & ~shared_pick & ~hot_pick & stream_pick
    private_sel = is_mem & ~shared_pick & ~hot_pick & ~stream_pick
    # The streaming cursor advances 8 bytes per streaming reference;
    # its position at each such op is a cumulative count of stream ops.
    stream_positions = (private_offsets[0] + 8 * np.cumsum(stream_sel)) % private_span

    addresses = np.zeros(n_ops, dtype=np.int64)
    addresses[shared_sel] = SHARED_DATA_BASE + shared_offsets[shared_sel]
    addresses[hot_sel] = private_base + hot_offsets[hot_sel]
    addresses[stream_sel] = data_base + stream_positions[stream_sel]
    addresses[private_sel] = data_base + private_offsets[private_sel]
    is_branch = codes == OP_BRANCH
    addresses[is_branch] = USER_CODE_BASE + sites[is_branch] * BRANCH_SITE_STRIDE

    codes = np.where(
        (codes == OP_STORE) & shared_sel & demote_store, OP_LOAD, codes
    )
    takens = branch_taken & is_branch

    tallies = OpTallies(
        loads=int((codes == OP_LOAD).sum()),
        stores=int((codes == OP_STORE).sum()),
        branches=int(is_branch.sum()),
        int_alu=int((codes == OP_INT_ALU).sum()),
        fp_x87=int((codes == OP_FP_X87).sum()),
        fp_sse=int((codes == OP_FP_SSE).sum()),
        kernel=int(kernel_flags.sum()),
    )

    # Frontend fetch boundaries: the core probes the L1I only when the PC
    # enters a new 16-byte block, which depends solely on the PC column —
    # fold the decision into the op code as OP_FETCH_FLAG.
    blocks = pcs >> 4
    fetch_flags = np.empty(n_ops, dtype=bool)
    fetch_flags[0] = True
    np.not_equal(blocks[1:], blocks[:-1], out=fetch_flags[1:])
    codes = np.where(fetch_flags, codes | OP_FETCH_FLAG, codes)

    return StreamColumns(
        codes=codes,
        addresses=addresses,
        kernels=kernel_flags,
        takens=takens,
        shareds=shared_sel,
        pcs=pcs,
        tallies=tallies,
    )


def synthesize_compact(
    profile: PhaseProfile,
    n_ops: int,
    core_id: int,
    rng: np.random.Generator,
) -> CompactSample:
    """Synthesise one sample and compact it to its interesting events.

    Consumes ``rng`` exactly like :func:`synthesize_columns` (the
    compaction is pure numpy post-processing).
    """
    cols = synthesize_columns(profile, n_ops, core_id, rng)
    codes = cols.codes
    pcs = cols.pcs

    bare = codes & OP_CODE_MASK
    fetch = codes >= OP_FETCH_FLAG  # flag is the top bit of the code
    is_mem = bare <= OP_STORE

    # Same-line fetch elision: a fetch whose 64-byte line equals the
    # previous fetch's line is a guaranteed L1I + ITLB-L1 hit with no
    # state change (the line/page are MRU and nothing touches the L1I or
    # ITLB in between; the next-line prefetcher needs line == last + 1).
    fetch_idx = np.nonzero(fetch)[0]
    fetch_lines = pcs[fetch_idx] >> LINE_SHIFT
    elide = np.zeros(len(fetch_idx), dtype=bool)
    if len(fetch_idx) > 1:
        np.equal(fetch_lines[1:], fetch_lines[:-1], out=elide[1:])
    fetch_keep = fetch.copy()
    fetch_keep[fetch_idx[elide]] = False

    event = is_mem | fetch_keep
    ev_idx = np.nonzero(event)[0]
    ev_codes = np.where(is_mem[ev_idx], bare[ev_idx], EV_NONE)
    ev_codes[fetch_keep[ev_idx]] += EV_FETCH

    is_branch = bare == OP_BRANCH
    ev_addresses = cols.addresses[ev_idx]
    ev_pcs = pcs[ev_idx]
    return CompactSample(
        n_ops=n_ops,
        codes=ev_codes.tolist(),
        ticks=ev_idx.tolist(),
        mem_lines=(ev_addresses >> LINE_SHIFT).tolist(),
        mem_pages=(ev_addresses >> PAGE_SHIFT).tolist(),
        fetch_lines=(ev_pcs >> LINE_SHIFT).tolist(),
        fetch_pages=(ev_pcs >> PAGE_SHIFT).tolist(),
        elided=int(elide.sum()),
        branch_pcs=cols.addresses[is_branch].tolist(),
        branch_takens=cols.takens[is_branch].tolist(),
        tallies=cols.tallies,
    )


def plan_workload(
    profiles: list[PhaseProfile],
    rng: np.random.Generator,
    active_core_ids: list[int],
    ops_per_core: int,
    warmup_fraction: float,
) -> list[PhasePlan]:
    """The per-sample counterpart of :func:`repro.arch.batch.plan_workload`:
    per phase, each core's warm-up sample, then each core's measured
    sample, each synthesised and compacted on its own."""
    warmup_ops = max(1, int(ops_per_core * warmup_fraction))
    return [
        PhasePlan(
            profile=profile,
            warmups=tuple(
                synthesize_compact(profile, warmup_ops, core_id, rng)
                for core_id in active_core_ids
            ),
            measured=tuple(
                synthesize_compact(profile, ops_per_core, core_id, rng)
                for core_id in active_core_ids
            ),
        )
        for profile in profiles
    ]


# ---------------------------------------------------------------------------
# Per-op simulation
# ---------------------------------------------------------------------------


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


def set_lines(cache: SetAssociativeCache) -> list[list[tuple[int, bool]]]:
    """Every set's ``(line, dirty)`` pairs in LRU order, in index order.

    A set keys each line by its tag; set ``index`` holds line ``tag *
    num_sets + index``.  Ordered lists, because ``==`` on two dicts
    ignores their LRU order.
    """
    num_sets = cache.config.num_sets
    return [
        [(tag * num_sets + index, dirty) for tag, dirty in cache._sets[index].items()]
        for index in range(num_sets)
    ]


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
