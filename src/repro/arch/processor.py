"""Socket/core topology and the phase-to-raw-events driver.

:class:`Processor` assembles the Table III machine — two sockets of six
out-of-order cores, each with split 32 KB L1s, a 256 KB private L2, and a
12 MB L3 shared per socket — and drives :class:`~repro.arch.core_model.
CoreModel` instances over the phase profiles a workload produced.

Simulation protocol (mirroring Section IV-C of the paper):

* each phase gets a *ramp-up* (warm-up) sample whose counters are
  discarded, then a measured sample;
* several cores run the phase concurrently (big-data tasks are
  data-parallel), sharing the socket's L3 and coherence directory so
  sibling hits and snoop responses happen for real;
* measured sample counters are cycle-accounted and scaled from the sample
  size to the phase's nominal instruction count, then summed over phases
  into one raw-event mapping per workload run.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, replace

from repro.arch.batch import PhasePlan
from repro.arch.cache import CacheConfig, SetAssociativeCache
from repro.arch.coherence import CoherenceDirectory
from repro.arch.core_model import CoreModel
from repro.arch.pipeline import CycleAccounting, CycleModel, SampleCounts
from repro.arch.trace import PhaseProfile
from repro.errors import ConfigurationError
from repro.obs.timeline import current_timeline

__all__ = ["ProcessorConfig", "Processor", "events_from_sample"]


#: Average speculatively executed wrong-path branches per misprediction.
_WRONG_PATH_BRANCHES = 3


@dataclass(frozen=True)
class ProcessorConfig:
    """Table III hardware configuration.

    The testbed's Xeon E5645 cores run at 2.4 GHz with Hyper-Threading
    and Turbo Boost disabled; the model simulates one thread per core
    and counts in cycles, so neither the clock nor the two features is
    a setting.
    """

    sockets: int = 2
    cores_per_socket: int = 6
    l3_size: int = 12 * 1024 * 1024
    l3_associativity: int = 16

    def __post_init__(self) -> None:
        if self.sockets <= 0 or self.cores_per_socket <= 0:
            raise ConfigurationError("sockets and cores_per_socket must be positive")


def _merge_counts(total: SampleCounts, part: SampleCounts) -> None:
    """Accumulate ``part`` into ``total`` field by field."""
    for name in vars(part):
        setattr(total, name, getattr(total, name) + getattr(part, name))


def _union_footprint(profiles: list[PhaseProfile]) -> PhaseProfile:
    """A profile whose footprints cover every phase (for one pre-warm)."""
    base = max(profiles, key=lambda p: p.data_working_set)
    return replace(
        base,
        code_footprint=max(p.code_footprint for p in profiles),
        data_working_set=max(p.data_working_set for p in profiles),
        shared_working_set=max(p.shared_working_set for p in profiles),
        shared_fraction=max(p.shared_fraction for p in profiles),
    )


def events_from_sample(
    counts: SampleCounts,
    accounting: CycleAccounting,
    scale: float,
) -> dict[str, float]:
    """Convert sample counters + cycle accounting into raw PMU events.

    Args:
        counts: Aggregated sample counters for one phase.
        accounting: Cycle breakdown for the same sample.
        scale: Nominal-instructions / sampled-instructions factor.

    Returns:
        Mapping from raw event name (a subset of
        :data:`repro.metrics.derivation.REQUIRED_EVENTS`) to scaled count.
    """
    br_executed = (
        counts.branches_retired + counts.branch_mispredicts * _WRONG_PATH_BRANCHES
    )
    user_instructions = counts.instructions - counts.kernel_instructions
    events = {
        "inst_retired.any": counts.instructions,
        "cpu_clk_unhalted.core": accounting.cycles,
        "mem_inst_retired.loads": counts.loads,
        "mem_inst_retired.stores": counts.stores,
        "br_inst_retired.all_branches": counts.branches_retired,
        "arith.int": counts.int_ops,
        "fp_comp_ops_exe.x87": counts.x87_ops,
        "fp_comp_ops_exe.sse_fp": counts.sse_ops,
        "inst_retired.kernel": counts.kernel_instructions,
        "inst_retired.user": user_instructions,
        "uops_retired.any": accounting.uops_retired,
        "l1i.misses": counts.l1i_misses,
        "l1i.hits": counts.l1i_hits,
        "l1i.cycles_stalled": accounting.fetch_stall,
        "l2_rqsts.miss": counts.l2_misses,
        "l2_rqsts.hit": counts.l2_hits,
        "llc.misses": counts.l3_misses,
        "llc.hits": counts.l3_hits,
        "mem_load_retired.hit_lfb": counts.load_hit_lfb,
        "mem_load_retired.l2_hit": counts.load_hit_l2,
        "mem_load_retired.other_core_l2_hit_hitm": counts.load_hit_sibling,
        "mem_load_retired.llc_unshared_hit": counts.load_hit_l3,
        "mem_load_retired.llc_miss": counts.load_llc_miss,
        "itlb_misses.any": counts.itlb_walks,
        "itlb_misses.walk_cycles": counts.itlb_walk_cycles,
        "dtlb_misses.any": counts.dtlb_walks,
        "dtlb_misses.walk_cycles": counts.dtlb_walk_cycles,
        "dtlb_misses.stlb_hit": counts.dtlb_stlb_hits,
        "br_misp_retired.all_branches": counts.branch_mispredicts,
        "br_inst_exec.any": br_executed,
        "ild_stall.any": accounting.ild_stall,
        "decoder_stall.any": accounting.decoder_stall,
        "rat_stalls.any": accounting.rat_stall,
        "resource_stalls.any": accounting.resource_stall,
        "uops_executed.core_active_cycles": accounting.uops_exe_cycles,
        "uops_executed.core_stall_cycles": accounting.uops_stall_cycles,
        "offcore_requests.demand.read_data": counts.offcore_data,
        "offcore_requests.demand.read_code": counts.offcore_code,
        "offcore_requests.demand.rfo": counts.offcore_rfo,
        "offcore_requests.writeback": counts.offcore_writeback,
        "snoop_response.hit": counts.snoop_hit,
        "snoop_response.hite": counts.snoop_hite,
        "snoop_response.hitm": counts.snoop_hitm,
        "offcore_requests_outstanding.cycles_sum": counts.mlp_sum,
        "offcore_requests_outstanding.active_cycles": counts.mlp_active,
        "mem_access.any": counts.loads + counts.stores,
    }
    return {name: value * scale for name, value in events.items()}


class Processor:
    """The Table III two-socket Westmere-like machine.

    Phase simulation runs on socket 0 (the paper pins measurement to
    per-core counters and averages; cross-socket traffic is not separately
    modelled).  The other socket exists so topology-dependent consumers
    (e.g. the cluster model's core-count arithmetic) see the real machine.
    """

    def __init__(self, config: ProcessorConfig | None = None) -> None:
        self.config = config or ProcessorConfig()
        # A workload's samples reach a few thousand of the L3's 12,288
        # sets, but ~95% of each private cache's, so only the L3 builds
        # its pre-warmed sets on first touch (a private set looked up
        # through the first-touch dict cost more than building it early).
        self.l3 = SetAssociativeCache(
            CacheConfig("L3", self.config.l3_size, self.config.l3_associativity),
            first_touch=True,
        )
        self.directory = CoherenceDirectory(self.config.cores_per_socket)
        self.cores = [
            CoreModel(core_id, self.l3, self.directory)
            for core_id in range(self.config.cores_per_socket)
        ]
        self._cycle_model = CycleModel()

    @property
    def total_cores(self) -> int:
        """All cores in the machine (both sockets)."""
        return self.config.sockets * self.config.cores_per_socket

    def phase_events(
        self, profile: PhaseProfile, total: SampleCounts
    ) -> dict[str, float]:
        """Cycle-account a phase's merged sample counters as raw events,
        scaled from the sample to the phase's nominal instructions."""
        accounting = self._cycle_model.account(total, profile.uops_per_instruction)
        scale = profile.instructions / max(1, total.instructions)
        return events_from_sample(total, accounting, scale)

    def run_workload(
        self, profiles: list[PhaseProfile], plan: list[PhasePlan]
    ) -> dict[str, float]:
        """Simulate a workload's phases back to back and sum raw events.

        Private core state is flushed and pre-warmed once before the
        first phase (a fresh process); it persists *across* phases of the
        same workload, as it would on real hardware.  Each window then
        runs every active core's warm-up sample (counters discarded),
        then every core's measured sample.

        Args:
            profiles: The workload's phases, in order.
            plan: One :class:`~repro.arch.batch.PhasePlan` per profile,
                from :func:`~repro.arch.batch.plan_workload`.  It carries
                every sample the windows run, so simulation consumes no
                randomness; the active cores are the first
                ``len(plan[0].measured)`` of the socket.
        """
        if not profiles:
            raise ConfigurationError("run_workload needs at least one phase profile")
        if len(plan) != len(profiles):
            raise ConfigurationError("plan length must match profiles")
        cores = self.cores[: len(plan[0].measured)]
        # The hot loops allocate steadily (directory entries, fill
        # tuples) but almost nothing cyclic; generational GC passes in
        # the middle of a workload are pure overhead, so pause collection
        # for the duration and restore the caller's setting after.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.start_workload(profiles, len(cores))
            sampler = current_timeline()
            totals: dict[str, float] = {}
            for window, (profile, phase) in enumerate(zip(profiles, plan)):
                for core, warmup in zip(cores, phase.warmups):
                    core.run_compact(warmup, discard=True)  # ramp-up
                total = SampleCounts()
                for core, measured in zip(cores, phase.measured):
                    _merge_counts(total, core.run_compact(measured))
                events = self.phase_events(profile, total)
                if sampler is not None:
                    # Observational: the sampler copies `events` and
                    # derives window metrics from the copy.
                    sampler.sim_window(
                        window, profile.name, profile.instructions, events
                    )
                for name, value in events.items():
                    totals[name] = totals.get(name, 0.0) + value
            return totals
        finally:
            if gc_was_enabled:
                gc.enable()

    def start_workload(
        self, profiles: list[PhaseProfile], active_cores: int
    ) -> None:
        """Flush all state, then pre-warm the active cores once with the
        union footprint of ``profiles``: each now-empty cache is filled
        once from its :meth:`prewarm_spans` list.  The private caches
        copy every set from its template now; the L3 only records its
        templates, and copies each set when the samples first reach it."""
        self.reset()
        for cache, spans in self.prewarm_spans(profiles, active_cores).items():
            cache.fill(spans)

    def prewarm_spans(
        self, profiles: list[PhaseProfile], active_cores: int
    ) -> dict[SetAssociativeCache, list[tuple[int, int]]]:
        """Every cache's pre-warm spans for the union footprint of
        ``profiles``, in install order: the active cores in turn, the L3
        divided between them (see :meth:`CoreModel.prewarm_spans`)."""
        union = _union_footprint(profiles)
        l3_lines = self.config.l3_size // 64
        code_lines = min(max(4, union.code_footprint // 64), (3 << 20) // 64)
        shared_lines = (
            min((4 << 20) // 64, max(1, union.shared_working_set // 64))
            if union.shared_fraction > 0
            else 0
        )
        private_budget = max(
            1024, (l3_lines - code_lines - shared_lines) // (active_cores + 1)
        )
        spans: dict[SetAssociativeCache, list[tuple[int, int]]] = {}
        for index, core in enumerate(self.cores[:active_cores]):
            core_spans = core.prewarm_spans(
                union,
                private_budget_lines=private_budget,
                install_shared_and_code=(index == 0),
            )
            for cache, cache_spans in core_spans.items():
                spans.setdefault(cache, []).extend(cache_spans)
        return spans

    def reset(self) -> None:
        """Flush all cores, the L3 (one ``clear`` of its built sets and
        templates) and the coherence directory."""
        for core in self.cores:
            core.reset()
        self.l3.flush()
        self.directory = CoherenceDirectory(self.config.cores_per_socket)
        for core in self.cores:
            core.directory = self.directory
