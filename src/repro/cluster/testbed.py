"""The five-node experimental cluster (Section IV).

One master plus four slaves on gigabit Ethernet, each slave a Table III
machine.  :meth:`Cluster.characterize_workload` reproduces the paper's
data-collection protocol end to end:

1. really run the workload through its software stack (ramp-up is part
   of the simulated sampling protocol);
2. instrument the execution trace into phase profiles;
3. simulate the profiles on each measured slave's processor;
4. observe the resulting ground-truth events through the perf layer
   (multiplexed counters, repeated runs);
5. derive the 45 Table II metrics per slave and take the mean across
   slaves ("We collect the data for all four slave nodes and take the
   mean").
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace

import numpy as np

from repro.arch.batch import PhasePlan, plan_workload
from repro.cluster.network import GigabitNetwork
from repro.cluster.node import Node, NodeConfig
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultPlan, fault_injection
from repro.metrics.derivation import derive_metrics
from repro.obs.flight import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    current_flight,
    flight_recording,
)
from repro.obs.timeline import (
    TimelineConfig,
    TimelineSampler,
    TimelineSeries,
    current_timeline,
    timeline_sampling,
)
from repro.obs.trace import span as obs_span
from repro.perf.profiler import PerfProfiler
from repro.stacks.base import PhaseKind, stable_hash
from repro.stacks.instrument import profiles_from_trace
from repro.workloads.base import RunContext, Workload, WorkloadRun

__all__ = ["MeasurementConfig", "WorkloadCharacterization", "Cluster"]


@dataclass(frozen=True)
class MeasurementConfig:
    """Knobs of the measurement protocol.

    Attributes:
        slaves_measured: How many of the four slaves to actually simulate
            (they are statistically exchangeable; measuring fewer trades
            variance for speed, exactly like fewer repeat runs would).
        active_cores: Sibling cores running each phase per slave.
        ops_per_core: Measured sample size per core per phase.
        warmup_fraction: Ramp-up sample discarded before measurement.
        perf_repeats: Repeated perf runs averaged per slave.
    """

    slaves_measured: int = 2
    active_cores: int = 4
    ops_per_core: int = 6000
    warmup_fraction: float = 0.3
    perf_repeats: int = 3

    def __post_init__(self) -> None:
        if not 1 <= self.slaves_measured <= 4:
            raise ConfigurationError("slaves_measured must be in [1, 4]")
        if self.active_cores < 1:
            raise ConfigurationError("active_cores must be positive")
        if self.ops_per_core < 1:
            raise ConfigurationError("ops_per_core must be positive")
        if self.perf_repeats <= 0:
            raise ConfigurationError("perf_repeats must be positive")


@dataclass(frozen=True)
class WorkloadCharacterization:
    """Result of characterizing one workload.

    Attributes:
        name: Workload label (``H-Sort`` ...).
        metrics: Mean of the 45 Table II metrics across measured slaves.
        per_slave: Per-slave metric mappings (before averaging).
        run: The underlying workload run (trace + correctness checks).
        attempts: How many whole-workload attempts the collection layer
            needed (1 = first try succeeded; >1 only under fault plans
            that exhausted some task's retry budget).
        faults: Fault/recovery tally (:meth:`FaultStats.to_dict`) when
            the run executed under an active fault plan, else ``None``.
        events: Flight-recorder events captured during the run (bounded,
            oldest-first).  Purely observational: carries wall-clock
            timings, so it is excluded from metric comparisons.
        events_capacity: Ring capacity the flight recorder ran with, so
            a stored snapshot is self-describing (gaps in ``seq`` plus
            this bound tell you exactly what overflowed).
        timeline: Time-resolved sample series collected during the run,
            or ``None`` when timeline sampling was off.  Observational
            like ``events``: excluded from metric comparisons.
    """

    name: str
    metrics: dict[str, float]
    per_slave: tuple[dict[str, float], ...]
    run: WorkloadRun
    attempts: int = 1
    faults: dict | None = None
    events: tuple[dict, ...] = ()
    events_capacity: int = 256
    timeline: TimelineSeries | None = None

    @property
    def correctness_checks(self) -> dict[str, float]:
        """The run's correctness self-checks, as a plain mapping."""
        return dict(self.run.checks)


class Cluster:
    """One master + four slaves, as in the paper's testbed."""

    NUM_SLAVES = 4

    def __init__(self, node_config: NodeConfig | None = None) -> None:
        self.master = Node("master", node_config)
        self.slaves = tuple(
            Node(f"slave-{i}", node_config) for i in range(self.NUM_SLAVES)
        )
        self.network = GigabitNetwork()

    def characterize_workload(
        self,
        workload: Workload,
        context: RunContext | None = None,
        measurement: MeasurementConfig | None = None,
        faults: FaultPlan | None = None,
        fault_scope: object = None,
        timeline: TimelineConfig | None = None,
        flight_capacity: int | None = None,
    ) -> WorkloadCharacterization:
        """Run and characterize one workload (see module docstring).

        With a ``faults`` plan, the workload executes under an ambient
        :class:`FaultInjector`: task crashes/stragglers/HDFS hiccups are
        recovered transparently (the committed trace — and hence the
        metrics — is unchanged), while losing a slave removes it from
        the measured set, so the cross-slave mean degrades to survivors
        exactly as a real four-node cluster's would.

        With a ``timeline`` config, an ambient
        :class:`~repro.obs.timeline.TimelineSampler` records the run's
        time series and attaches it as ``characterization.timeline``.
        Sampling is purely observational: metrics are bit-identical with
        it on or off, and the series must pass both reconciliation
        invariants (window sums = simulated totals; slave-sample mean =
        published metrics) or the run fails loudly.

        Raises:
            ConfigurationError: If ``measurement`` asks for more active
                cores than a socket has (before the workload runs).
            StackExecutionError: If an injected fault persists past a
                task's retry budget (the workload attempt fails, like a
                Hadoop job exceeding ``mapred.map.max.attempts``).
            AnalysisError: If a collected timeline fails to reconcile
                with the published metrics.
        """
        context = context or RunContext()
        measurement = measurement or MeasurementConfig()
        socket_cores = len(self.slaves[0].processor.cores)
        if measurement.active_cores > socket_cores:
            raise ConfigurationError(
                f"active_cores={measurement.active_cores} exceeds the "
                f"{socket_cores} cores of a socket"
            )

        # Record into the ambient flight recorder when one is active
        # (e.g. the service wraps whole jobs); otherwise each
        # characterization gets its own bounded recorder.
        recorder = current_flight()
        if recorder is None:
            recorder = FlightRecorder(capacity=flight_capacity or DEFAULT_CAPACITY)

        sampler = TimelineSampler(timeline) if timeline is not None else None

        injector: FaultInjector | None = None
        if faults is not None and faults.any_faults():
            injector = FaultInjector(faults, scope=(workload.name, fault_scope))
        with flight_recording(recorder), timeline_sampling(sampler), obs_span(
            f"workload:{workload.name}", "workload",
            family=workload.family.value,
        ):
            recorder.record("workload-start", workload=workload.name)
            with fault_injection(injector), obs_span(
                f"run:{workload.name}", "run"
            ):
                run = workload.run(context)

            characterization = self._measure(
                workload, context, measurement, injector, run
            )
        recorder.record("workload-done", workload=workload.name)

        series: TimelineSeries | None = None
        if sampler is not None:
            series = sampler.series()
            # The assertion-backed invariant: the steady-state slave
            # samples must reproduce the published mean bit-for-bit.
            series.reconcile(characterization.metrics)
        return replace(
            characterization,
            events=tuple(recorder.snapshot()),
            events_capacity=recorder.capacity,
            timeline=series,
        )

    def _measure(
        self,
        workload: Workload,
        context: RunContext,
        measurement: MeasurementConfig,
        injector: FaultInjector | None,
        run: WorkloadRun,
    ) -> WorkloadCharacterization:
        """Steps 2-5 of the protocol: instrument, simulate, observe, derive."""
        committed = run.trace.committed_records
        actual_input = max((record.bytes_in for record in committed), default=1)
        footprint_scale = max(1.0, workload.declared_bytes / max(1, actual_input))
        with obs_span(
            f"instrument:{workload.name}", "measure", phases=len(committed)
        ):
            profiles = profiles_from_trace(
                run.trace,
                workload.hints,
                num_workers=self.NUM_SLAVES,
                footprint_scale=footprint_scale,
            )

        # Account shuffle traffic on the interconnect (committed transfers
        # only; a killed attempt's half-done fetches are not re-counted).
        for record in committed:
            if record.kind in (PhaseKind.SHUFFLE, PhaseKind.SHUFFLE_READ):
                self.network.transfer(record.bytes_in)

        measured_slaves = list(range(measurement.slaves_measured))
        if injector is not None:
            lost = injector.lost_nodes(self.NUM_SLAVES)
            surviving = [i for i in measured_slaves if i not in lost]
            if not surviving:
                # Every measured slave died: fall back to the first
                # survivor in the cluster so the mean still exists.
                surviving = [min(set(range(self.NUM_SLAVES)) - set(lost))]
            measured_slaves = surviving

        # Hoist every measured slave's synthesis ahead of all simulation;
        # each slave's plan is drawn from its own rng.
        slave_rngs: dict[int, np.random.Generator] = {}
        slave_plans: dict[int, list[PhasePlan]] = {}
        for slave_index in measured_slaves:
            slave = self.slaves[slave_index]
            rng = np.random.default_rng(
                stable_hash((workload.name, context.seed, slave_index))
            )
            slave_rngs[slave_index] = rng
            cores = slave.processor.cores[: measurement.active_cores]
            core_ids = [core.core_id for core in cores]
            slave_plans[slave_index] = plan_workload(
                profiles,
                rng,
                core_ids,
                measurement.ops_per_core,
                measurement.warmup_fraction,
            )

        profiler = PerfProfiler()
        sampler = current_timeline()
        per_slave: list[dict[str, float]] = []
        for slave_index in measured_slaves:
            slave = self.slaves[slave_index]
            rng = slave_rngs[slave_index]
            scope = (
                sampler.slave_scope(slave_index)
                if sampler is not None
                else contextlib.nullcontext()
            )
            with scope, obs_span(
                f"simulate:{workload.name}:slave-{slave_index}", "measure"
            ):
                true_events = slave.processor.run_workload(
                    profiles, plan=slave_plans[slave_index]
                )
                if sampler is not None:
                    # Windows must exactly partition the measurement —
                    # fail at collection time, not after persisting.
                    sampler.verify_slave_windows(slave_index, true_events)
                observed = profiler.profile(
                    true_events, rng, repeats=measurement.perf_repeats
                )
                per_slave.append(derive_metrics(observed.counts))
                if sampler is not None:
                    sampler.slave_metrics(slave_index, per_slave[-1])

        mean_metrics = {
            name: float(np.mean([slave[name] for slave in per_slave]))
            for name in per_slave[0]
        }
        return WorkloadCharacterization(
            name=workload.name,
            metrics=mean_metrics,
            per_slave=tuple(per_slave),
            run=run,
            faults=injector.stats.to_dict() if injector is not None else None,
        )
