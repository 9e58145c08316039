"""Suite-level data collection with caching and process parallelism.

Characterizing all 32 workloads means running every engine and simulating
every phase — expensive enough that the analysis layer, the test suite
and every benchmark should share one result.  :func:`characterize_suite`
memoises in process and optionally persists *complete* characterizations
(metrics, per-slave detail, the underlying run) through the
:class:`~repro.service.store.ResultStore`, keyed by the collection
parameters; cache hits hydrate objects indistinguishable from a fresh
collection.

Each ``(workload, RunContext, MeasurementConfig)`` characterization is
independent of every other: the testbed seeds a dedicated RNG per
``(workload, seed, slave)`` and :meth:`Processor.run_workload` resets all
microarchitectural state before simulating, so a fresh :class:`Cluster`
per workload produces exactly the numbers a shared serial cluster would.
That is what makes the ``workers`` fan-out below safe — results are
merged back in suite order and the resulting matrix is bit-identical to
a serial run, regardless of worker count or scheduling.

The fan-out itself runs on a persistent worker pool
(:mod:`repro.cluster.pool`): workers are forked once and build their
cluster once, work items are ``(name, store_key)`` pairs, and each
result travels back whole as a store payload, so parallel and serial
collections return the same :class:`WorkloadCharacterization` class.
With a store, each worker also writes its object file and the parent
adopts it into the index, so persisting the suite afterwards only
writes the suite entry.
"""

from __future__ import annotations

import hashlib
import threading
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.cluster.pool import get_pool
from repro.cluster.testbed import Cluster, MeasurementConfig, WorkloadCharacterization
from repro.core.dataset import WorkloadMetricMatrix
from repro.errors import AnalysisError, CollectionCancelled, StackExecutionError
from repro.faults import FaultPlan
from repro.metrics.catalog import METRIC_NAMES
from repro.obs.log import get_logger
from repro.obs.timeline import TimelineConfig
from repro.obs.trace import span as obs_span
from repro.stacks.base import stable_hash
from repro.workloads.base import RunContext, Workload
from repro.workloads.suite import SUITE

__all__ = [
    "CollectionConfig",
    "SuiteCharacterization",
    "characterize_suite",
    "suite_store_key",
    "workload_store_key",
    "collection_runs",
    "ProgressFn",
    "WorkloadFn",
]

#: Progress callback signature: ``(workloads_done, workloads_total)``.
ProgressFn = Callable[[int, int], None]

#: Per-workload completion callback: receives each characterization as
#: it lands, in suite order (the job manager's timeline-delta feed).
WorkloadFn = Callable[[WorkloadCharacterization], None]

_log = get_logger("repro.cluster.collection")


@dataclass(frozen=True)
class CollectionConfig:
    """Everything that determines a suite characterization.

    ``workers`` controls *how* the suite is collected, not *what* comes
    out: any worker count yields the identical matrix (see the module
    docstring), so it is deliberately excluded from :meth:`cache_key`.
    """

    scale: float = 1.0
    seed: int = 42
    measurement: MeasurementConfig = MeasurementConfig()
    #: Worker processes to fan workloads over; 1 or 0 = serial in-process.
    workers: int = 1
    #: Fault-injection plan every workload runs under (``None`` = no faults).
    faults: FaultPlan | None = None
    #: Extra whole-workload attempts after a retry-budget-exhausted failure.
    #: Each re-attempt reseeds the fault plan (the injector's draws are
    #: deterministic, so retrying the *same* plan would fail identically).
    workload_retries: int = 2
    #: Timeline sampling config (``None`` = no time series collected).
    #: Participates in :meth:`cache_key` so timeline-enabled collections
    #: persist (and hydrate) entries that actually carry a timeline.
    timeline: TimelineConfig | None = None
    #: Flight-recorder ring capacity (``None`` = the recorder's default).
    #: Observational — the metrics are identical at any capacity — so it
    #: is excluded from :meth:`cache_key`, like ``workers``.
    flight_capacity: int | None = None

    def cache_key(self) -> str:
        m = self.measurement
        key = (
            f"suite-s{self.scale}-seed{self.seed}-n{m.slaves_measured}"
            f"-c{m.active_cores}-o{m.ops_per_core}-w{m.warmup_fraction}"
            f"-r{m.perf_repeats}"
        )
        if self.faults is not None and self.faults.any_faults():
            key += f"-{self.faults.token()}"
        if self.timeline is not None:
            key += f"-{self.timeline.token()}"
        return key


@dataclass(frozen=True)
class SuiteCharacterization:
    """The collected suite data.

    Attributes:
        matrix: The 32×45 workload/metric matrix.
        characterizations: Per-workload details — present on fresh
            collections *and* on persistent-cache hits (the store keeps
            complete characterizations and hydrates them back).
    """

    matrix: WorkloadMetricMatrix
    characterizations: tuple[WorkloadCharacterization, ...]


_MEMO: dict[str, SuiteCharacterization] = {}

#: Counts actual (non-cached) suite collections in this process.  The
#: service layer's single-flight tests assert on it: N concurrent
#: identical requests must bump it exactly once.
_RUNS = 0
_RUNS_LOCK = threading.Lock()

#: Correctness self-checks that must read 1.0 for a characterization to
#: be trusted (each workload only reports the checks that apply to it).
_CORRECTNESS_CHECKS = (
    "sorted",
    "records_preserved",
    "counts_correct",
    "matches_correct",
    "matches_reference",
    "inertia_decreased",
    "all_vertices_ranked",
)


def collection_runs() -> int:
    """How many actual (cache-missing) collections this process has run."""
    return _RUNS


def _workloads_digest(workloads: tuple[Workload, ...]) -> str:
    """A short stable digest of *which* workloads are being collected.

    The cache key must distinguish different subsets of the same size
    (``SUITE[:4]`` vs ``SUITE[4:8]``) — keying on ``len(workloads)``
    alone made those collide and return the wrong matrix.
    """
    names = "|".join(w.name for w in workloads)
    return hashlib.sha256(names.encode("utf-8")).hexdigest()[:12]


def suite_store_key(
    config: CollectionConfig, workloads: tuple[Workload, ...] = SUITE
) -> str:
    """The store/memo key of a suite collection: parameters + workload set."""
    return f"{config.cache_key()}-{len(workloads)}-{_workloads_digest(workloads)}"


def workload_store_key(config: CollectionConfig, name: str) -> str:
    """The store key of one workload's full characterization.

    Per-workload entries are shared between suite-sized and single-
    workload collections at the same parameters: collecting the suite
    warms every ``/characterize/<name>`` lookup.
    """
    return f"wc-{config.cache_key()}-{name}"


def _characterize_with_retries(
    cluster: Cluster,
    workload: Workload,
    context: RunContext,
    measurement: MeasurementConfig,
    faults: FaultPlan | None,
    retries: int,
    timeline: TimelineConfig | None = None,
    flight_capacity: int | None = None,
) -> WorkloadCharacterization:
    """Characterize one workload, re-attempting exhausted-budget failures.

    Mirrors a JobTracker resubmitting a failed job: when an injected
    fault persists past a task's retry budget the whole workload attempt
    fails with :class:`StackExecutionError`, and the collection layer
    re-runs it under a reseeded plan (same probabilities, fresh draws) up
    to ``retries`` extra times.  The returned characterization records
    how many attempts were needed.
    """
    attempts = 1 + max(0, retries if faults is not None else 0)
    last_error: StackExecutionError | None = None
    for attempt in range(1, attempts + 1):
        plan = faults
        if plan is not None and attempt > 1:
            plan = replace(faults, seed=stable_hash((faults.seed, attempt)))
        try:
            result = cluster.characterize_workload(
                workload, context, measurement, faults=plan,
                timeline=timeline, flight_capacity=flight_capacity,
            )
        except StackExecutionError as error:
            last_error = error
            continue
        return replace(result, attempts=attempt)
    raise StackExecutionError(
        f"{workload.name}: all {attempts} collection attempts failed "
        f"(last: {last_error})"
    )


def _verify_characterization(characterization: WorkloadCharacterization) -> None:
    """Raise if any correctness self-check of the run failed."""
    failed = {
        name: value
        for name, value in characterization.correctness_checks.items()
        if name in _CORRECTNESS_CHECKS and value != 1.0
    }
    if failed:
        raise AnalysisError(
            f"{characterization.name}: correctness checks failed: {failed}"
        )


def _check_cancel(cancel: threading.Event | None) -> None:
    if cancel is not None and cancel.is_set():
        raise CollectionCancelled("suite collection cancelled")


def _collect_serial(
    workloads: tuple[Workload, ...],
    config: CollectionConfig,
    progress: ProgressFn | None,
    cancel: threading.Event | None,
    on_workload: WorkloadFn | None = None,
) -> list[WorkloadCharacterization]:
    cluster = Cluster()
    context = RunContext(scale=config.scale, seed=config.seed)
    characterizations: list[WorkloadCharacterization] = []
    for workload in workloads:
        _check_cancel(cancel)
        characterizations.append(
            _characterize_with_retries(
                cluster, workload, context, config.measurement,
                config.faults, config.workload_retries,
                config.timeline, config.flight_capacity,
            )
        )
        _log.debug(
            "workload characterized",
            extra={"workload": workload.name,
                   "done": len(characterizations), "total": len(workloads)},
        )
        if on_workload is not None:
            on_workload(characterizations[-1])
        if progress is not None:
            progress(len(characterizations), len(workloads))
    return characterizations


def _pool_token(config: CollectionConfig) -> str:
    """What must match for a persistent pool to be reused: everything
    the workers latched at initialization time."""
    return (
        f"{config.cache_key()}-rt{config.workload_retries}"
        f"-fc{config.flight_capacity}"
    )


def _collect_parallel(
    workloads: tuple[Workload, ...],
    config: CollectionConfig,
    workers: int,
    progress: ProgressFn | None,
    cancel: threading.Event | None,
    on_workload: WorkloadFn | None = None,
    store=None,
    correlation_id: str | None = None,
) -> tuple[list[WorkloadCharacterization], set[str]]:
    """Fan the workloads over a persistent worker pool, in suite order.

    Workers live across calls (the cluster is built once per worker),
    work items are just ``(name, store_key)`` pairs, and each result
    comes back as a full store payload that the parent rebuilds.  With a
    ``store``, each worker also writes its object file and the parent
    adopts the receipt into the index (single index writer); the adopted
    keys are returned alongside the characterizations so persisting the
    suite does not write them again.  Results land in suite order
    regardless of completion order, so the merged matrix is
    bit-identical to a serial run.

    Cancellation is cooperative: dispatch stops, in-flight workloads
    drain (the pool stays healthy), then
    :class:`~repro.errors.CollectionCancelled` is raised.  A worker
    that *dies* (as opposed to reporting a failure) raises
    :class:`~repro.errors.WorkerPoolError` — never a hang.
    """
    from repro.service.store import characterization_from_payload

    init = {
        "scale": config.scale,
        "seed": config.seed,
        "measurement": config.measurement,
        "faults": config.faults,
        "retries": config.workload_retries,
        "timeline": config.timeline,
        "flight_capacity": config.flight_capacity,
        "store_root": str(store.root) if store is not None else None,
    }
    pool = get_pool(workers, init, _pool_token(config))
    items = [
        (workload.name, workload_store_key(config, workload.name))
        for workload in workloads
    ]
    characterizations: list[WorkloadCharacterization] = []
    adopted: set[str] = set()

    def land(index: int, result: tuple) -> None:
        payload, receipt = result
        if receipt is not None:
            store_key = items[index][1]
            store.adopt(store_key, *receipt)
            adopted.add(store_key)
        characterizations.append(characterization_from_payload(payload))
        if on_workload is not None:
            on_workload(characterizations[-1])
        if progress is not None:
            progress(len(characterizations), len(workloads))

    pool.run(
        items,
        cancel=cancel,
        on_result=land,
        # Rides along on every task so the pool workers' trace spans
        # carry the submitting client's correlation id (fleet traces
        # join client -> server -> job -> pool on it).
        meta={"correlation_id": correlation_id} if correlation_id else None,
    )
    return characterizations, adopted


def _hydrate_from_store(store, key: str, config: CollectionConfig):
    """Rebuild a full SuiteCharacterization from the persistent store.

    Returns ``None`` (a miss) unless the suite entry *and* every
    per-workload entry are present and compatible — a partially evicted
    suite is recollected rather than served half-hydrated.
    """
    from repro.service.store import characterization_from_payload

    entry = store.get(key)
    if entry is None or entry.get("kind") != "suite":
        return None
    matrix_payload = entry["matrix"]
    if tuple(matrix_payload["metrics"]) != METRIC_NAMES:
        return None  # stale: the metric catalog changed
    characterizations = []
    for name in entry["workloads"]:
        payload = store.get(workload_store_key(config, name))
        if payload is None:
            return None
        characterizations.append(characterization_from_payload(payload))
    matrix = WorkloadMetricMatrix(
        workloads=tuple(matrix_payload["workloads"]),
        values=np.array(matrix_payload["values"], dtype=float),
    )
    return SuiteCharacterization(
        matrix=matrix, characterizations=tuple(characterizations)
    )


def _persist_to_store(
    store,
    key: str,
    config: CollectionConfig,
    result: SuiteCharacterization,
    adopted: set[str],
) -> None:
    """Write the suite entry, and every workload entry not ``adopted``
    already (pool workers wrote those objects themselves)."""
    from repro.service.store import characterization_to_payload

    for characterization in result.characterizations:
        wkey = workload_store_key(config, characterization.name)
        if wkey not in adopted:
            store.put(wkey, characterization_to_payload(characterization))
    store.put(
        key,
        {
            "kind": "suite",
            "key": key,
            "workloads": [name for name in result.matrix.workloads],
            "matrix": {
                "workloads": list(result.matrix.workloads),
                "metrics": list(METRIC_NAMES),
                "values": result.matrix.values.tolist(),
            },
        },
    )


def characterize_suite(
    workloads: tuple[Workload, ...] = SUITE,
    config: CollectionConfig | None = None,
    cache_dir: str | Path | None = None,
    verify_checks: bool = True,
    workers: int | None = None,
    progress: ProgressFn | None = None,
    cancel: threading.Event | None = None,
    on_workload: WorkloadFn | None = None,
    correlation_id: str | None = None,
) -> SuiteCharacterization:
    """Characterize ``workloads``, optionally fanning over processes.

    Args:
        workloads: Workloads to run (default: the full 32-workload suite).
        config: Collection parameters (scale, seed, measurement protocol,
            worker count).
        cache_dir: If given (or if ``REPRO_CACHE_DIR`` is set), complete
            characterizations are persisted there through the result
            store and fully rehydrated on later identical calls.
        verify_checks: Fail loudly if any workload's self-check failed —
            a characterization of a wrong computation is worthless.
        workers: Overrides ``config.workers`` when given.  Values above 1
            run each workload on a fresh cluster in a worker process; the
            result is bit-identical to serial (see module docstring).
        progress: Optional ``(done, total)`` callback invoked after each
            workload completes (the job manager's progress feed).
        cancel: Optional event; when set, collection stops between
            workloads and raises :class:`CollectionCancelled`.
        on_workload: Optional callback receiving each completed
            :class:`WorkloadCharacterization` as it lands, in suite
            order (feeds per-workload timeline deltas to job streams).
            Not invoked on memo/store cache hits.
        correlation_id: Optional client correlation id, recorded on the
            suite span and forwarded to the pool workers' task spans so
            a merged fleet trace joins the whole request end-to-end.
            Purely observational — never part of any cache key.

    Raises:
        AnalysisError: If ``verify_checks`` finds a failed correctness
            check.
        CollectionCancelled: If ``cancel`` was set mid-collection.
    """
    # Imported here, not at module top: the service layer sits above the
    # cluster layer, and the store pulls in none of this module.
    from repro.service.store import ResultStore, resolve_cache_dir

    config = config or CollectionConfig()
    if workers is None:
        workers = config.workers
    key = suite_store_key(config, workloads)
    if key in _MEMO:
        _log.debug("suite memo hit", extra={"key": key})
        return _MEMO[key]

    store = None
    cache_dir = resolve_cache_dir(cache_dir)
    if cache_dir is not None:
        store = ResultStore(cache_dir)
        hydrated = _hydrate_from_store(store, key, config)
        if hydrated is not None:
            _log.info("suite hydrated from store", extra={"key": key})
            _MEMO[key] = hydrated
            return hydrated

    global _RUNS
    with _RUNS_LOCK:
        _RUNS += 1
    _log.info(
        "collecting suite",
        extra={"key": key, "workloads": len(workloads), "workers": workers},
    )
    span_args = {"workloads": len(workloads), "workers": workers}
    if correlation_id:
        span_args["correlation_id"] = correlation_id
    with obs_span("suite-collection", "suite", **span_args):
        adopted: set[str] = set()
        if workers > 1 and len(workloads) > 1:
            characterizations, adopted = _collect_parallel(
                workloads, config, workers, progress, cancel, on_workload,
                store=store, correlation_id=correlation_id,
            )
        else:
            characterizations = _collect_serial(
                workloads, config, progress, cancel, on_workload
            )

    rows: dict[str, dict[str, float]] = {}
    for characterization in characterizations:
        if verify_checks:
            _verify_characterization(characterization)
        rows[characterization.name] = characterization.metrics

    result = SuiteCharacterization(
        matrix=WorkloadMetricMatrix.from_rows(rows),
        characterizations=tuple(characterizations),
    )
    _MEMO[key] = result
    if store is not None:
        _persist_to_store(store, key, config, result, adopted)
    return result
