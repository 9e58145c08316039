"""Batched window-level simulation: one synthesis pass per phase.

A plain simulation would walk every synthesised operation through a
Python dispatch loop.  Most ops never touch microarchitectural state,
though: ALU/FP/other ops only
advance the tick, branches only train the (self-contained) predictor, and
the majority of frontend fetches re-probe the 64-byte line the previous
fetch just made MRU — a guaranteed hit that changes nothing but four
counters.  This module exploits that: :func:`plan_workload` synthesises
every window of a workload up front (warm-up and measured samples for
every core, every phase) and compacts each sample down to the events the
simulation actually has to execute.

Synthesis runs once per *phase*, not once per sample.  Each sample's
random draws are made in the per-sample protocol's order, written
straight into phase-wide buffers (``rng.random(out=...)``); then every
column of all ``2 x cores`` samples is built and compacted by one set of
numpy passes.  The sequential state a sample threads through its ops
(the streaming cursor, the user and kernel fetch-PC chains) restarts at
each sample's first op, and each Zipf power is applied only to the ops
that use it.  The per-sample reading of the same synthesis lives on as
the test oracle ``tests/arch/reference_engine.py``.

A :class:`CompactSample` carries, per sample:

* the *interesting events* — loads, stores, and fetch-block transitions
  that enter a new cache line — as parallel plain-list columns in
  original op order, with each event's original tick (the MLP integral
  needs it);
* the count of *elided* same-line fetches, applied to the L1I/ITLB
  counters in one batched increment;
* the full branch outcome stream, replayed through the predictor in a
  separate tight loop (its state is independent of the memory
  hierarchy);
* the vectorised per-class tallies.

Bit-identity with a plain per-op loop is an invariant, not an
aspiration: the simulation consumes no randomness (all draws happen at
synthesis time, in an unchanged order), elided fetches are provably
state-preserving (the line and its page are MRU in the L1I/ITLB and
nothing touches either between consecutive fetches), and the MLP
integral is computed post hoc from the recorded fill deadlines via the
closed form of the per-op loop's occupancy count.  The per-op loop lives
on in the same oracle; ``tests/arch/test_plan_oracle.py`` pins every
planned sample to the oracle's and ``tests/arch/test_batch_equivalence.py``
pins whole runs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.arch.cache import LINE_SHIFT
from repro.arch.tlb import PAGE_SHIFT
from repro.arch.trace import (
    _KERNEL_BURST_MEAN,
    _KERNEL_REUSE_SKEW,
    BRANCH_SITE_STRIDE,
    HOT_REGION_BYTES,
    KERNEL_CODE_BASE,
    KERNEL_CODE_FOOTPRINT,
    OP_BRANCH,
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

__all__ = [
    "EV_LOAD",
    "EV_STORE",
    "EV_NONE",
    "EV_FETCH",
    "CompactSample",
    "PhasePlan",
    "plan_workload",
    "mlp_from_deadlines",
]

#: Compact event codes: low bits name the data-side op (load/store/none),
#: :data:`EV_FETCH` marks a non-elided frontend fetch riding the same op.
EV_LOAD = 0
EV_STORE = 1
EV_NONE = 2
EV_FETCH = 4

#: Per-op uniform draws a sample makes after its op-class draw, ring-0
#: bursts and branch-site biases, in draw order: ten before the
#: hot-region offsets, three after.
_DRAWS_BEFORE_HOT = 10
_DRAWS_AFTER_HOT = 3


class CompactSample(NamedTuple):
    """One synthesised sample, reduced to the events that do work.

    Attributes:
        n_ops: Ops the sample represents (ticks; most never appear in
            ``codes`` — they are ALU/FP ops, branches, or elided
            fetches).
        codes: Per event, ``EV_LOAD``/``EV_STORE``/``EV_NONE`` plus
            :data:`EV_FETCH` when the op opens a new 64-byte fetch line.
        ticks: Original op index per event (drives the MLP integral).
        mem_lines: Data-side 64-byte line per event (0 for fetch-only
            events; the simulation kernel never needs the raw address).
        mem_pages: Data-side 4 KiB page per event — doubles as the
            stream-tracker key and the DTLB page.
        fetch_lines: Fetch-side line per event (for ``EV_FETCH``).
        fetch_pages: Fetch-side page per event (for ``EV_FETCH``).
        elided: Same-line fetches removed from the event list; each is a
            guaranteed L1I + ITLB-L1 hit applied as batched counter
            increments.  The *first* fetch of the sample is never
            elided: the L1I it meets was left by whatever ran before
            (the pre-warm or another sample), so only *within* a sample
            is a same-line refetch provably state-preserving.
        branch_pcs: Branch-site PCs in stream order (the predictor pass).
        branch_takens: Branch outcomes aligned with ``branch_pcs``.
        tallies: Vectorised per-class op counts.
    """

    n_ops: int
    codes: list[int]
    ticks: list[int]
    mem_lines: list[int]
    mem_pages: list[int]
    fetch_lines: list[int]
    fetch_pages: list[int]
    elided: int
    branch_pcs: list[int]
    branch_takens: list[bool]
    tallies: OpTallies


class PhasePlan(NamedTuple):
    """All synthesised samples of one window (phase): per-core warm-up
    samples (counters discarded) and per-core measured samples."""

    profile: PhaseProfile
    warmups: tuple[CompactSample, ...]
    measured: tuple[CompactSample, ...]


@lru_cache(maxsize=512)
def _mix_cdf(mix: InstructionMix) -> np.ndarray:
    """Cumulative op-class table of ``mix`` (memoised per distinct mix).

    ``np.searchsorted(cdf, u, side="right")`` over uniform draws ``u`` is
    exactly what ``Generator.choice(7, p=probs)`` computes from the same
    draws, without ``choice``'s per-call validation.
    """
    _, probabilities = zip(*mix.as_probabilities())
    probs = np.asarray(probabilities, dtype=float)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _kernel_bursts(
    kernel_fraction: float, flags: np.ndarray, rng: np.random.Generator
) -> None:
    """Fill ``flags`` with ring-0 flags as alternating exponential
    user/kernel bursts.

    The long-run kernel share equals ``kernel_fraction`` while execution
    switches address spaces only every few hundred instructions, as real
    syscall-heavy code does.
    """
    if kernel_fraction <= 0.0 or kernel_fraction >= 1.0:
        flags[:] = kernel_fraction >= 1.0
        return
    mean_user = _KERNEL_BURST_MEAN * (1.0 - kernel_fraction) / kernel_fraction
    n_ops = len(flags)
    position = 0
    in_kernel = False
    while position < n_ops:
        mean = _KERNEL_BURST_MEAN if in_kernel else mean_user
        run = 1 + int(rng.exponential(mean))
        flags[position : position + run] = in_kernel
        position += run
        in_kernel = not in_kernel


def _chain_offsets(
    member: np.ndarray,
    jumps: np.ndarray,
    targets: np.ndarray,
    span: int,
    starts: np.ndarray,
) -> np.ndarray:
    """Fetch offsets of one address space's chain, restarted per sample.

    Ops where ``member`` is set belong to this chain (user or kernel).  A
    jump (op ``jumps[k]``, a member) moves the chain to ``targets[k]``; a
    sequential op advances the previous chain offset by 4 modulo
    ``span``, and each sample starts from a virtual jump to offset 0
    just before its first op.  With ``count`` the running number of
    chain ops, the offset at op ``i`` is ``(4 * count[i] + anchor) %
    span``, where the anchor of the last jump ``j`` at or before ``i`` in
    ``i``'s sample is ``target - 4 * count[j]``, and that of the sample's
    virtual jump is ``-4 * (chain ops before the sample)``.  Entries of
    non-member ops are meaningless.
    """
    count = np.cumsum(member)
    anchors = np.zeros(len(member), dtype=np.int64)
    anchors[starts] = -4 * (count[starts] - member[starts])
    anchors[jumps] = targets - 4 * count[jumps]
    marks = np.full(len(member), -1)
    marks[starts] = starts
    marks[jumps] = jumps
    return (4 * count + anchors[np.maximum.accumulate(marks)]) % span


def _zipf(spans, uniforms: np.ndarray, skew: float, align: int) -> np.ndarray:
    """``floor(span * u**skew)`` rounded down to ``align`` bytes."""
    return (spans * uniforms**skew).astype(int) & ~(align - 1)


def _plan_phase(
    profile: PhaseProfile,
    rng: np.random.Generator,
    core_ids: list[int],
    warmup_ops: int,
    ops_per_core: int,
) -> PhasePlan:
    """Synthesise and compact one phase's warm-up and measured samples."""
    cores = len(core_ids)
    sizes = [warmup_ops] * cores + [ops_per_core] * cores
    n_samples = len(sizes)
    bounds = np.zeros(n_samples + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    starts = bounds[:-1]
    total = int(bounds[-1])
    sample = np.repeat(np.arange(n_samples), sizes)
    n_sites = int(np.clip(profile.code_footprint // 16384, 12, 64))

    # Every draw, sample by sample in the per-sample protocol's order,
    # into phase-wide buffers.
    class_draws = np.empty(total)
    kernel = np.empty(total, dtype=bool)
    bias_draws = np.empty(n_samples * n_sites)
    draws = np.empty((_DRAWS_BEFORE_HOT + _DRAWS_AFTER_HOT, total))
    hot_offsets = np.empty(total, dtype=np.int64)
    for index, (start, end) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        rng.random(out=class_draws[start:end])
        _kernel_bursts(profile.kernel_fraction, kernel[start:end], rng)
        rng.random(out=bias_draws[index * n_sites : (index + 1) * n_sites])
        for row in draws[:_DRAWS_BEFORE_HOT]:
            rng.random(out=row[start:end])
        hot_offsets[start:end] = rng.integers(0, HOT_REGION_BYTES, size=end - start)
        for row in draws[_DRAWS_BEFORE_HOT:]:
            rng.random(out=row[start:end])
    (
        u_site, u_taken, u_jump, u_user, u_kernel, u_region, u_hot, u_stream,
        u_shared_warm, u_shared, u_warm, u_private, u_demote,
    ) = draws
    # The mix order matches the OP_* codes, so a class draw *is* the code.
    codes = np.searchsorted(_mix_cdf(profile.mix), class_draws, side="right")
    del class_draws

    # Branch sites: stable PCs with fixed taken-biases.  The number of
    # distinct sites grows with the code footprint (bigger binaries have
    # more static branches competing for predictor state); site
    # popularity is even more skewed than code reuse (inner loops re-run
    # their branches constantly).
    half_spread = 0.5 * (1.0 - profile.branch_entropy)
    site_bias = np.where(bias_draws < 0.5, 0.5 - half_spread, 0.5 + half_spread)
    branch_idx = np.flatnonzero(codes == OP_BRANCH)
    sites = np.minimum(
        (n_sites * u_site[branch_idx] ** (profile.code_reuse_skew + 2.0)).astype(int),
        n_sites - 1,
    )
    branch_takens = (
        u_taken[branch_idx] < site_bias[sample[branch_idx] * n_sites + sites]
    )
    branch_pcs = USER_CODE_BASE + sites * BRANCH_SITE_STRIDE

    # Jumps of the two fetch-PC chains (user and kernel address spaces)
    # and their Zipf targets.
    is_jump = u_jump >= profile.code_locality
    user_span = max(256, profile.code_footprint)
    user_jumps = np.flatnonzero(~kernel & is_jump)
    user_targets = _zipf(user_span, u_user[user_jumps], profile.code_reuse_skew, 4)
    kernel_jumps = np.flatnonzero(kernel & is_jump)
    kernel_targets = _zipf(
        KERNEL_CODE_FOOTPRINT, u_kernel[kernel_jumps], _KERNEL_REUSE_SKEW, 4
    )

    # Data addresses by region.  Two-tier reuse: most non-streaming
    # references land in a warm region (hash-table heads, live buffers);
    # the tail sweeps the full span.
    private_span = max(64, profile.data_working_set)
    shared_span = max(64, profile.shared_working_set)
    warm_private = min(WARM_REGION_BYTES, private_span)
    warm_shared = min(SHARED_WARM_BYTES, shared_span)
    private_base = PRIVATE_DATA_BASE + PRIVATE_DATA_STRIDE * np.asarray(core_ids * 2)
    is_mem = codes <= OP_STORE
    shared_pick = u_region < profile.shared_fraction
    hot_pick = u_hot < profile.hot_data_fraction
    stream_pick = u_stream < profile.data_streaming_fraction
    shared_sel = is_mem & shared_pick
    local = is_mem & ~shared_pick
    rest = local & ~hot_pick
    addresses = np.zeros(total, dtype=np.int64)
    addresses[branch_idx] = branch_pcs

    idx = np.flatnonzero(shared_sel)
    spans = np.where(u_shared_warm[idx] >= profile.shared_tail_fraction, warm_shared, shared_span)
    addresses[idx] = SHARED_DATA_BASE + _zipf(spans, u_shared[idx], profile.shared_reuse_skew, 8)

    idx = np.flatnonzero(local & hot_pick)
    addresses[idx] = private_base[sample[idx]] + (hot_offsets[idx] & ~7)

    # The streaming cursor starts at the sample's first private offset
    # and advances 8 bytes per streaming reference of the sample.
    spans = np.where(u_warm[starts] >= profile.data_tail_fraction, warm_private, private_span)
    cursor = _zipf(spans, u_private[starts], profile.data_reuse_skew, 8)
    stream_sel = rest & stream_pick
    stream_count = np.cumsum(stream_sel)
    cursor -= 8 * np.concatenate(([0], stream_count))[starts]
    idx = np.flatnonzero(stream_sel)
    seg = sample[idx]
    addresses[idx] = (
        private_base[seg] + HOT_REGION_BYTES
        + (cursor[seg] + 8 * stream_count[idx]) % private_span
    )

    idx = np.flatnonzero(rest & ~stream_pick)
    seg = sample[idx]
    spans = np.where(u_warm[idx] >= profile.data_tail_fraction, warm_private, private_span)
    addresses[idx] = (
        private_base[seg] + HOT_REGION_BYTES
        + _zipf(spans, u_private[idx], profile.data_reuse_skew, 8)
    )

    # Most shared stores demote to loads (shared traffic is
    # read-dominated; all cores draw from the same skewed head, so hot
    # shared lines really are resident in several private hierarchies).
    codes[(codes == OP_STORE) & shared_sel & (u_demote > profile.shared_write_fraction)] = OP_LOAD
    # The draws are spent: drop every view of them before the chains.
    del draws, hot_offsets, u_site, u_taken, u_jump, u_user, u_kernel, u_region
    del u_hot, u_stream, u_shared_warm, u_shared, u_warm, u_private, u_demote

    # Fetch PCs: two sequential-with-jumps chains, interleaved by the
    # ring-0 burst flags.
    kernel_offsets = _chain_offsets(
        kernel, kernel_jumps, kernel_targets, KERNEL_CODE_FOOTPRINT, starts
    )
    user_offsets = _chain_offsets(~kernel, user_jumps, user_targets, user_span, starts)
    pcs = np.where(
        kernel, KERNEL_CODE_BASE + kernel_offsets, USER_CODE_BASE + user_offsets
    )
    del kernel_offsets, user_offsets

    # Frontend fetches: the core probes the L1I only when the PC enters a
    # new 16-byte block, and always on a sample's first op.  A fetch into
    # the line the previous fetch of its sample opened is elided (a
    # guaranteed L1I + ITLB-L1 hit with no state change: the line and its
    # page are MRU and nothing touches the L1I or ITLB in between; the
    # next-line prefetcher needs line == last + 1).  A sample's first
    # fetch is never elided: the L1I it meets was left by whatever ran
    # before it.
    blocks = pcs >> 4
    fetch = np.empty(total, dtype=bool)
    np.not_equal(blocks[1:], blocks[:-1], out=fetch[1:])
    fetch[starts] = True
    fetch_idx = np.flatnonzero(fetch)
    fetch_lines = pcs[fetch_idx] >> LINE_SHIFT
    elide = np.zeros(len(fetch_idx), dtype=bool)
    np.equal(fetch_lines[1:], fetch_lines[:-1], out=elide[1:])
    elide[np.searchsorted(fetch_idx, starts)] = False
    elided = fetch_idx[elide]
    fetch[elided] = False

    ev_idx = np.flatnonzero(is_mem | fetch)
    ev_codes = np.where(is_mem[ev_idx], codes[ev_idx], EV_NONE)
    ev_codes[fetch[ev_idx]] += EV_FETCH
    ev_addresses = addresses[ev_idx]
    ev_pcs = pcs[ev_idx]
    ev_sample = sample[ev_idx]

    per_class = np.bincount(sample * 7 + codes, minlength=n_samples * 7).reshape(n_samples, 7)
    tallies = np.column_stack(
        (per_class[:, :6], np.bincount(sample[kernel], minlength=n_samples))
    ).tolist()
    elided_counts = np.bincount(sample[elided], minlength=n_samples).tolist()
    ev_bounds = np.searchsorted(ev_idx, bounds).tolist()
    branch_bounds = np.searchsorted(branch_idx, bounds).tolist()

    # Drop the op-level columns before the events become Python ints.
    del codes, sample, pcs, addresses, blocks, stream_count

    # One ``tolist`` per column, sliced per sample.
    columns = (
        ev_codes.tolist(),
        (ev_idx - starts[ev_sample]).tolist(),
        (ev_addresses >> LINE_SHIFT).tolist(),
        (ev_addresses >> PAGE_SHIFT).tolist(),
        (ev_pcs >> LINE_SHIFT).tolist(),
        (ev_pcs >> PAGE_SHIFT).tolist(),
    )
    branch_pc_list = branch_pcs.tolist()
    branch_taken_list = branch_takens.tolist()
    samples = []
    for index, n_ops in enumerate(sizes):
        lo, hi = ev_bounds[index], ev_bounds[index + 1]
        b_lo, b_hi = branch_bounds[index], branch_bounds[index + 1]
        codes_, ticks, mem_lines, mem_pages, fetch_lines_, fetch_pages = (
            column[lo:hi] for column in columns
        )
        samples.append(
            CompactSample(
                n_ops=n_ops,
                codes=codes_,
                ticks=ticks,
                mem_lines=mem_lines,
                mem_pages=mem_pages,
                fetch_lines=fetch_lines_,
                fetch_pages=fetch_pages,
                elided=elided_counts[index],
                branch_pcs=branch_pc_list[b_lo:b_hi],
                branch_takens=branch_taken_list[b_lo:b_hi],
                tallies=OpTallies(*tallies[index]),
            )
        )
    return PhasePlan(
        profile=profile,
        warmups=tuple(samples[:cores]),
        measured=tuple(samples[cores:]),
    )


def plan_workload(
    profiles: list[PhaseProfile],
    rng: np.random.Generator,
    active_core_ids: list[int],
    ops_per_core: int,
    warmup_fraction: float,
) -> list[PhasePlan]:
    """Synthesise every window of a workload up front, one pass per phase.

    The rng draw order is the per-window protocol's (per phase: each
    core's warm-up sample, then each core's measured sample; within a
    sample, the per-sample synthesis's order) — simulation consumes no
    randomness, so hoisting all synthesis ahead of all simulation is
    bit-identical to drawing each window as it runs.
    """
    if ops_per_core <= 0:
        raise ConfigurationError("ops_per_core must be positive")
    warmup_ops = max(1, int(ops_per_core * warmup_fraction))
    return [
        _plan_phase(profile, rng, active_core_ids, warmup_ops, ops_per_core)
        for profile in profiles
    ]


def mlp_from_deadlines(
    push_ticks: list[int], deadlines: list[int], n_ops: int
) -> tuple[int, int]:
    """The MLP integrals, computed post hoc from recorded fills.

    A per-op loop pushes a service deadline per off-core fill and, each
    tick, pops expired entries then counts the survivors.  An entry
    pushed at tick ``t`` with deadline ``d`` is therefore outstanding at
    exactly the ticks ``u`` with ``t < u < d`` (and ``u < n_ops``), so
    the occupancy series is a difference array — no heap required.

    Returns:
        ``(mlp_sum, mlp_active)``: total outstanding-entry ticks and the
        number of ticks with at least one entry outstanding, equal
        bit-for-bit to a per-op loop's heap-based counters.
    """
    if not push_ticks:
        return 0, 0
    starts = np.asarray(push_ticks, dtype=np.int64) + 1
    ends = np.minimum(np.asarray(deadlines, dtype=np.int64), n_ops)
    delta = np.bincount(starts, minlength=n_ops + 1)
    delta -= np.bincount(ends, minlength=n_ops + 1)
    occupancy = np.cumsum(delta[:n_ops])
    return int(occupancy.sum()), int(np.count_nonzero(occupancy))
