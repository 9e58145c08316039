"""Batched window-level simulation: compact event streams per sample.

A plain simulation would walk every synthesised operation through a
Python dispatch loop.  Most ops never touch microarchitectural state,
though: ALU/FP/other ops only
advance the tick, branches only train the (self-contained) predictor, and
the majority of frontend fetches re-probe the 64-byte line the previous
fetch just made MRU — a guaranteed hit that changes nothing but four
counters.  This module exploits that: it synthesises every window of a
workload up front (warm-up and measured samples for every core, every
phase), one vectorised pass per sample over shared preallocated
buffers, and compacts each sample down to the events the simulation
actually has to execute.

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
* the vectorised per-class tallies the synthesis already computed.

Bit-identity with a plain per-op loop is an invariant, not an
aspiration: the simulation consumes no randomness (all draws happen at
synthesis time, in an unchanged order), elided fetches are provably
state-preserving (the line and its page are MRU in the L1I/ITLB and
nothing touches either between consecutive fetches), and the MLP
integral is computed post hoc from the recorded fill deadlines via the
closed form of the per-op loop's occupancy count.  The per-op loop lives
on as the test oracle ``tests/arch/reference_engine.py``; the
equivalence is pinned by ``tests/arch/test_batch_equivalence.py``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.arch.cache import LINE_SHIFT
from repro.arch.tlb import PAGE_SHIFT
from repro.arch.trace import (
    OP_BRANCH,
    OP_CODE_MASK,
    OP_FETCH_FLAG,
    OP_STORE,
    OpTallies,
    PhaseProfile,
    SynthScratch,
    synthesize_columns,
)

__all__ = [
    "EV_LOAD",
    "EV_STORE",
    "EV_NONE",
    "EV_FETCH",
    "CompactSample",
    "PhasePlan",
    "synthesize_compact",
    "plan_workload",
    "mlp_from_deadlines",
]

#: Compact event codes: low bits name the data-side op (load/store/none),
#: :data:`EV_FETCH` marks a non-elided frontend fetch riding the same op.
EV_LOAD = 0
EV_STORE = 1
EV_NONE = 2
EV_FETCH = 4


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


def synthesize_compact(
    profile: PhaseProfile,
    n_ops: int,
    core_id: int,
    rng: np.random.Generator,
    scratch: SynthScratch | None = None,
) -> CompactSample:
    """Synthesise one sample and compact it to its interesting events.

    Consumes ``rng`` exactly like :func:`~repro.arch.trace.
    synthesize_columns` (the compaction is pure numpy post-processing), so
    hoisting and batching compact synthesis never changes what is drawn.
    """
    cols = synthesize_columns(profile, n_ops, core_id, rng, scratch=scratch)
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
    scratch: SynthScratch | None = None,
) -> list[PhasePlan]:
    """Synthesise every window of a workload up front, in batch.

    The rng draw order is the per-window protocol's (per phase: each
    core's warm-up sample, then each core's measured sample) — simulation
    consumes no randomness, so hoisting all synthesis ahead of all
    simulation is bit-identical to drawing each window as it runs.
    One :class:`~repro.arch.trace.SynthScratch` (default: a fresh one)
    backs every sample's uniform draws, so a whole workload — and, when
    the caller passes the same scratch for several slaves or workloads,
    a whole suite — reuses one set of preallocated buffers.
    """
    scratch = scratch if scratch is not None else SynthScratch()
    warmup_ops = max(1, int(ops_per_core * warmup_fraction))
    plan: list[PhasePlan] = []
    for profile in profiles:
        warmups = tuple(
            synthesize_compact(profile, warmup_ops, core_id, rng, scratch)
            for core_id in active_core_ids
        )
        measured = tuple(
            synthesize_compact(profile, ops_per_core, core_id, rng, scratch)
            for core_id in active_core_ids
        )
        plan.append(PhasePlan(profile=profile, warmups=warmups, measured=measured))
    return plan


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
