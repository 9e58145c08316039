"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro list                 # the 32 workloads with metadata
    python -m repro run S-PageRank       # execute one workload, show checks
    python -m repro characterize H-Sort  # one workload's 45 metrics
    python -m repro trace H-WordCount --out trace.json  # Chrome trace
    python -m repro experiment -o out/   # full reproduction + report bundle
    python -m repro observations         # score Observations 1-9
    python -m repro subset --budget 120  # budget-aware representative subset
    python -m repro serve --port 8321    # HTTP characterization service

All subcommands accept ``--scale`` and ``--seed``; the global
``--log-level`` / ``--log-json`` flags turn on structured logging.
Unknown workload labels exit with code 2 and closest-match suggestions.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading

from repro.analysis.experiment import ExperimentConfig, run_experiment
from repro.analysis.report import write_report
from repro.cluster import (
    Cluster,
    CollectionConfig,
    MeasurementConfig,
)
from repro.errors import ConfigurationError, WorkloadError
from repro.faults import FaultInjector, fault_injection, parse_fault_spec
from repro.metrics import METRICS
from repro.obs.log import configure_logging, get_logger
from repro.workloads import SUITE, RunContext, workload_by_name
from repro.workloads.suite import closest_workloads

__all__ = ["main"]

#: Exit code for user errors (bad workload name, invalid configuration),
#: distinct from workload self-check failures (1).
EXIT_USAGE = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.5, help="input scale factor")
    parser.add_argument("--seed", type=int, default=42, help="master seed")


def _measurement(args: argparse.Namespace) -> MeasurementConfig:
    return MeasurementConfig(
        slaves_measured=args.slaves,
        active_cores=args.cores,
        ops_per_core=args.ops,
    )


def _add_measurement(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--slaves", type=int, default=1, help="slaves to measure")
    parser.add_argument("--cores", type=int, default=3, help="active cores per slave")
    parser.add_argument("--ops", type=int, default=4000, help="sampled ops per core")
    parser.add_argument(
        "--flight-capacity",
        type=int,
        default=None,
        metavar="N",
        help="flight-recorder ring size per characterization (default 256; "
        "purely observational — does not change any metric)",
    )


def _add_timeline(parser: argparse.ArgumentParser, default_on: bool = False) -> None:
    if default_on:
        parser.add_argument(
            "--no-timeline",
            dest="timeline",
            action="store_false",
            help="disable time-resolved sampling (on by default here)",
        )
    else:
        parser.add_argument(
            "--timeline",
            action="store_true",
            help="collect a time-resolved sample series alongside the "
            "45-metric characterization (purely observational)",
        )
    parser.add_argument(
        "--timeline-interval",
        type=float,
        default=10.0,
        metavar="MS",
        help="minimum milliseconds between run samples (default 10)",
    )
    parser.add_argument(
        "--ramp-up-fraction",
        type=float,
        default=0.3,
        metavar="F",
        help="leading fraction of the run treated as ramp-up and excluded "
        "from steady-state rates (default 0.3)",
    )


def _timeline(args: argparse.Namespace):
    """A :class:`TimelineConfig` from args, or ``None`` when sampling is off."""
    if not getattr(args, "timeline", False):
        return None
    from repro.obs.timeline import TimelineConfig

    return TimelineConfig(
        interval_ms=args.timeline_interval,
        ramp_up_fraction=args.ramp_up_fraction,
    )


def _add_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject faults while running, e.g. "
        "'crash=0.05,straggler=0.1,hdfs=0.02,node-loss=0.01,attempts=4' "
        "(recovery keeps the metrics identical to a fault-free run)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for fault decisions (default: the plan spec's seed)",
    )


def _fault_plan(args: argparse.Namespace):
    """The parsed fault plan, ``None`` if no ``--faults``, or an exit code."""
    if not getattr(args, "faults", None):
        return None
    try:
        return parse_fault_spec(args.faults, seed=args.fault_seed)
    except ConfigurationError as error:
        print(f"repro: bad --faults spec: {error}", file=sys.stderr)
        return EXIT_USAGE


def _cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'name':18s} {'category':22s} {'data type':16s} {'problem size'}")
    print("-" * 76)
    for workload in SUITE:
        print(
            f"{workload.name:18s} {workload.category.value:22s} "
            f"{workload.data_type.value:16s} {workload.declared_size}"
        )
    return 0


def _resolve_workload(label: str):
    """The named workload, or ``None`` after a friendly stderr message."""
    try:
        return workload_by_name(label)
    except WorkloadError:
        print(f"repro: unknown workload {label!r}", file=sys.stderr)
        suggestions = closest_workloads(label)
        if suggestions:
            print(f"did you mean: {', '.join(suggestions)}?", file=sys.stderr)
        print("(run `python -m repro list` to see all 32 workloads)", file=sys.stderr)
        return None


def _cmd_run(args: argparse.Namespace) -> int:
    workload = _resolve_workload(args.workload)
    if workload is None:
        return EXIT_USAGE
    plan = _fault_plan(args)
    if isinstance(plan, int):
        return plan
    injector = (
        FaultInjector(plan, scope=(workload.name, None))
        if plan is not None and plan.any_faults()
        else None
    )
    with fault_injection(injector):
        run = workload.run(RunContext(scale=args.scale, seed=args.seed))
    print(f"{workload.name}: {run.output_records} output records, "
          f"{len(run.trace.records)} phase records")
    if injector is not None:
        stats = injector.stats
        print(f"  faults injected: {stats.to_dict()['injected']} "
              f"(retries={stats.task_retries}, "
              f"speculative={stats.speculative_tasks}, "
              f"backoff={stats.backoff_s:.2f}s)")
    for name, value in run.checks.items():
        print(f"  check {name} = {value}")
    failed = [n for n, v in run.checks.items() if v == 0.0]
    return 1 if failed else 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    workload = _resolve_workload(args.workload)
    if workload is None:
        return EXIT_USAGE
    plan = _fault_plan(args)
    if isinstance(plan, int):
        return plan
    cluster = Cluster()
    characterization = cluster.characterize_workload(
        workload,
        RunContext(scale=args.scale, seed=args.seed),
        _measurement(args),
        faults=plan,
        timeline=_timeline(args),
        flight_capacity=args.flight_capacity,
    )
    if characterization.faults is not None:
        print(f"fault tally: {characterization.faults}")
    if characterization.timeline is not None:
        series = characterization.timeline
        rates = series.steady_state_rates()
        print(f"timeline: {len(series)} samples over "
              f"{series.duration_ms:.1f} ms (ramp-up {series.ramp_up_ms:.1f} ms, "
              f"steady state {rates['records_per_s']:,.0f} records/s)")
    print(f"{workload.name} — 45 Table II metrics "
          f"(mean over {len(characterization.per_slave)} slave(s)):")
    for spec in METRICS:
        print(f"  {spec.number:>2} {spec.name:16s} "
              f"{characterization.metrics[spec.name]:12.4f}")
    return 0


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for suite collection (1 = serial; any "
        "value yields a bit-identical matrix)",
    )


def _collection(args: argparse.Namespace):
    """A :class:`CollectionConfig` from args, or an exit code on bad input."""
    plan = _fault_plan(args)
    if isinstance(plan, int):
        return plan
    return CollectionConfig(
        scale=args.scale,
        seed=args.seed,
        measurement=_measurement(args),
        # serve repurposes --workers for server processes; its
        # per-collection fan-out arrives as --collection-workers.
        workers=getattr(args, "collection_workers", None) or args.workers,
        faults=plan,
        timeline=_timeline(args),
        flight_capacity=getattr(args, "flight_capacity", None),
    )


def _cmd_observations(args: argparse.Namespace) -> int:
    from repro.analysis.observations import evaluate_observations

    collection = _collection(args)
    if isinstance(collection, int):
        return collection
    experiment = run_experiment(ExperimentConfig(collection=collection))
    observations = evaluate_observations(experiment)
    for observation in observations:
        print(observation.render())
        print()
    holding = sum(1 for o in observations if o.holds)
    print(f"{holding}/9 observations hold")
    return 0 if holding >= 8 else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    collection = _collection(args)
    if isinstance(collection, int):
        return collection
    experiment = run_experiment(ExperimentConfig(collection=collection))
    if args.out:
        out = write_report(experiment, args.out)
        print(f"report bundle written to {out}/")
    else:
        print(experiment.render())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.flight import FlightRecorder, flight_recording
    from repro.obs.trace import Tracer, tracing

    if args.merge is not None:
        return _merge_traces(args)
    if args.workload is None:
        print(
            "repro: trace needs a workload label (or --merge STORE_DIR)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    workload = _resolve_workload(args.workload)
    if workload is None:
        return EXIT_USAGE
    plan = _fault_plan(args)
    if isinstance(plan, int):
        return plan
    tracer = Tracer()
    recorder = FlightRecorder()
    cluster = Cluster()
    with tracing(tracer), flight_recording(recorder):
        characterization = cluster.characterize_workload(
            workload,
            RunContext(scale=args.scale, seed=args.seed),
            _measurement(args),
            faults=plan,
        )
    if _write_trace(tracer.to_chrome(), args.out):
        return 1
    print(f"{workload.name}: {len(tracer)} spans -> {args.out} "
          "(load in chrome://tracing or https://ui.perfetto.dev)")
    print(f"flight recorder captured {len(characterization.events)} events")
    print(f"{'span':40s} {'count':>6s} {'total ms':>10s}")
    print("-" * 58)
    for entry in tracer.summary(top=args.top):
        print(f"{entry['name']:40s} {entry['count']:>6d} "
              f"{entry['total_us'] / 1e3:>10.2f}")
    return 0


def _write_trace(document: dict, out: str, **bounds) -> int:
    """Write a Chrome trace that passes :func:`validate_trace`.

    Returns the exit code: 1, with the problems on stderr and nothing
    written, when the exporter produced a malformed document.
    """
    from repro.obs.trace import validate_trace

    problems = validate_trace(document, **bounds)
    for problem in problems:
        print(f"repro: invalid trace: {problem}", file=sys.stderr)
    if problems:
        return 1
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return 0


def _merge_traces(args: argparse.Namespace) -> int:
    """``repro trace --merge STORE_DIR``: stitch the fleet's spills."""
    from repro.obs.fleet import merge_traces, read_live, telemetry_dir

    documents = read_live(args.merge, "traces")
    if not documents:
        print(
            f"repro: no trace spills under {telemetry_dir(args.merge, 'traces')} "
            "(run the service with tracing on, or drive some jobs first)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    merged = merge_traces(documents)
    if _write_trace(merged, args.out, require_process_names=True):
        return 1
    pids = merged["otherData"]["pids"]
    events = [e for e in merged["traceEvents"] if e.get("ph") != "M"]
    print(
        f"merged {len(documents)} process trace(s): {len(events)} events "
        f"across {len(pids)} pid lane(s) -> {args.out} "
        "(load in https://ui.perfetto.dev)"
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """``repro status``: the fleet's live workers and merged totals."""
    if args.store is not None:
        from repro.obs.fleet import fleet_status, read_live

        status = fleet_status(read_live(args.store, "metrics"))
    else:
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        try:
            status = ServiceClient(args.url, timeout=args.timeout).fleet()
        except ServiceError as error:
            print(f"repro: {error}", file=sys.stderr)
            return 1
    if not status["workers"]:
        # Every shard stale (or none ever written) is an outage even
        # when some process still answers HTTP: report it as one.
        print(
            "repro: fleet has no live members — every metric shard is "
            "stale or missing (is the service running?)",
            file=sys.stderr,
        )
        return 1
    totals = status["totals"]
    print(f"{'instance':28s} {'role':10s} {'pid':>7s} {'up s':>8s} "
          f"{'beat s':>7s} {'jobs':>5s} {'reqs':>7s}")
    print("-" * 78)
    for worker in status["workers"]:
        print(
            f"{worker['instance'][:28]:28s} {worker['role']:10s} "
            f"{worker['pid']:>7d} {worker['uptime_s']:>8.1f} "
            f"{worker['heartbeat_age_s']:>7.2f} "
            f"{int(worker['jobs_live']):>5d} "
            f"{int(worker['requests_total']):>7d}"
        )
    quantiles = totals["request_seconds"]
    print(
        f"\n{totals['processes']} live processes "
        f"({totals['servers']} servers), "
        f"{int(totals['restarts_total'])} restarts, "
        f"{int(totals['jobs_live'])} live jobs"
    )
    print(
        f"{int(totals['requests_total'])} requests "
        f"({totals['requests_per_s']:.2f}/s), latency "
        f"p50={quantiles['p50'] * 1e3:.1f}ms "
        f"p95={quantiles['p95'] * 1e3:.1f}ms "
        f"p99={quantiles['p99'] * 1e3:.1f}ms"
    )
    health = status.get("health")
    if health:
        line = (
            f"serving worker {health.get('instance')}: "
            f"{'ready' if health.get('ready') else 'NOT READY'}"
        )
        problems = health.get("problems") or []
        if problems:
            line += " (" + "; ".join(problems) + ")"
        print(line)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile``: capture a merged fleet CPU profile window."""
    from repro.obs.prof import (
        attribution,
        collapsed_stacks,
        span_totals,
        validate_profile,
    )

    if args.store is not None:
        from repro.obs.fleet import collect_fleet_profile, request_profile

        request = request_profile(
            args.store,
            seconds=args.seconds,
            interval_ms=args.interval,
            mode=args.mode,
        )
        doc = collect_fleet_profile(args.store, request)
    else:
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        client = ServiceClient(args.url, timeout=args.seconds + 30.0)
        try:
            doc = client.profile(
                seconds=args.seconds,
                interval_ms=args.interval,
                mode=args.mode,
            )
        except ServiceError as error:
            print(f"repro: {error}", file=sys.stderr)
            return 1
    processes = doc.get("processes", [])
    if not doc.get("samples"):
        print(
            "repro: the profile window captured no samples — no fleet "
            "process answered (check `repro status`, or pass --store "
            "for an offline fleet)",
            file=sys.stderr,
        )
        return 1
    problems = validate_profile(doc)
    for problem in problems:
        print(f"repro: invalid profile: {problem}", file=sys.stderr)
    if problems:
        return 1
    stats = attribution(doc)
    roles: dict[str, int] = {}
    for process in processes:
        role = str(process.get("role", "?"))
        roles[role] = roles.get(role, 0) + 1
    role_list = ", ".join(
        f"{count} {role}" for role, count in sorted(roles.items())
    )
    print(
        f"{doc['samples']} samples over {doc.get('duration_s', 0.0):.2f}s "
        f"({doc.get('mode', 'wall')} clock, "
        f"{doc.get('interval_ms', 0.0):g}ms interval) "
        f"from {len(processes)} process(es): {role_list or 'n/a'}"
    )
    print(
        f"span attribution: {stats['fraction']:.1%} of busy samples "
        f"({stats['attributed']} attributed, {stats['untracked']} "
        f"untracked, {stats['idle']} idle)"
    )
    print(f"\n{'span path':58s} {'samples':>8s} {'share':>7s}")
    print("-" * 75)
    for entry in span_totals(doc, top=args.top):
        print(
            f"{entry['path'][:58]:58s} {entry['samples']:>8d} "
            f"{entry['fraction']:>6.1%}"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        print(f"\nprofile document -> {args.out}")
    if args.collapsed:
        with open(args.collapsed, "w", encoding="utf-8") as handle:
            handle.write(collapsed_stacks(doc) + "\n")
        print(f"collapsed stacks -> {args.collapsed} "
              "(feed to flamegraph.pl or speedscope)")
    if args.flame:
        from repro.analysis.dashboard import render_profile_page

        with open(args.flame, "w", encoding="utf-8") as handle:
            handle.write(render_profile_page(doc))
        print(f"flamegraph -> {args.flame} "
              "(self-contained HTML, no scripts)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.dashboard import render_dashboard
    from repro.cluster.collection import characterize_suite
    from repro.core.subsetting import subset_workloads
    from repro.errors import ReproError

    collection = _collection(args)
    if isinstance(collection, int):
        return collection
    workloads = SUITE[: args.limit] if args.limit else SUITE
    result = characterize_suite(
        workloads,
        collection,
        progress=lambda done, total: print(
            f"  characterized {done}/{total}", file=sys.stderr
        ),
    )
    try:
        subsetting = subset_workloads(result.matrix, seed=args.seed)
    except ReproError as error:
        print(f"repro: subsetting skipped: {error}", file=sys.stderr)
        subsetting = None
    budgeted = None
    try:
        from repro.core.pca import fit_pca
        from repro.subset import estimate_costs, select_budgeted

        costs = estimate_costs(result.characterizations)
        budget = args.budget
        if budget is None:
            # Default operating point: half the pool's simulation cost.
            budget = 0.5 * sum(cost.seconds for cost in costs)
        budgeted = select_budgeted(
            fit_pca(result.matrix.values).scores,
            result.matrix.workloads,
            costs,
            budget,
        )
    except ReproError as error:
        print(f"repro: budget panel skipped: {error}", file=sys.stderr)
    profile_doc = None
    if args.profile:
        try:
            with open(args.profile, encoding="utf-8") as handle:
                profile_doc = json.load(handle)
        except (OSError, ValueError) as error:
            print(
                f"repro: profile panel skipped: cannot read "
                f"{args.profile}: {error}",
                file=sys.stderr,
            )
    html_doc = render_dashboard(
        result.matrix,
        result.characterizations,
        subsetting=subsetting,
        title=f"repro characterization dashboard ({len(workloads)} workloads)",
        budgeted=budgeted,
        profile=profile_doc,
    )
    with open(args.html, "w", encoding="utf-8") as handle:
        handle.write(html_doc)
    with_timelines = sum(
        1 for c in result.characterizations if c.timeline is not None
    )
    print(f"dashboard written to {args.html} "
          f"({len(html_doc)} bytes, {with_timelines} timelines, "
          "self-contained — no scripts, no external assets)")
    return 0


def _cmd_subset(args: argparse.Namespace) -> int:
    from repro.cluster.collection import characterize_suite
    from repro.core.pca import fit_pca
    from repro.core.subsetting import subset_workloads
    from repro.errors import ReproError, SubsetError
    from repro.subset import estimate_costs, select_budgeted

    import math

    if args.budget is not None and (
        not math.isfinite(args.budget) or args.budget <= 0
    ):
        print(
            f"repro: --budget must be a positive number of seconds, "
            f"got {args.budget!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    collection = _collection(args)
    if isinstance(collection, int):
        return collection
    workloads = SUITE[: args.limit] if args.limit else SUITE
    result = characterize_suite(
        workloads,
        collection,
        progress=lambda done, total: print(
            f"  characterized {done}/{total}", file=sys.stderr
        ),
    )

    if args.budget is not None:
        try:
            costs = estimate_costs(result.characterizations)
            points = fit_pca(result.matrix.values).scores
            selection = select_budgeted(
                points, result.matrix.workloads, costs, args.budget
            )
        except SubsetError as error:
            print(f"repro: {error}", file=sys.stderr)
            return EXIT_USAGE
        by_name = {cost.workload: cost for cost in costs}
        measured = sum(1 for cost in costs if cost.measured)
        print(
            f"budget {selection.budget_s:g}s over {selection.n_pool} workloads "
            f"(pool cost {selection.total_pool_cost_s:.2f}s, "
            f"{measured} measured costs)"
        )
        print(f"{'#':>2s} {'workload':18s} {'cost s':>9s} {'source':>9s} "
              f"{'cum cost s':>11s} {'cum coverage':>13s}")
        print("-" * 68)
        for position, pick in enumerate(selection.picks, start=1):
            print(
                f"{position:>2d} {pick.workload:18s} {pick.cost_s:>9.3f} "
                f"{by_name[pick.workload].source:>9s} "
                f"{pick.cumulative_cost_s:>11.3f} "
                f"{pick.cumulative_coverage:>13.4f}"
            )
        print(
            f"selected {len(selection.picks)}/{selection.n_pool} workloads, "
            f"coverage {selection.coverage:.4f}, "
            f"cost {selection.cost_s:.2f}s of {selection.budget_s:g}s"
        )
        return 0

    n = len(workloads)
    if args.k is not None and not 2 <= args.k <= n - 1:
        print(
            f"repro: --k must be in [2, {n - 1}] for {n} workloads",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        if args.k is None:
            subsetting = subset_workloads(result.matrix, seed=args.seed)
        else:
            subsetting = subset_workloads(
                result.matrix, seed=args.seed, k_min=args.k, k_max=args.k
            )
    except ReproError as error:
        print(f"repro: subsetting failed: {error}", file=sys.stderr)
        return EXIT_USAGE
    print(f"K = {subsetting.clustering.k} clusters "
          f"(BIC-chosen, {subsetting.pca.n_kept} PCs)")
    print(f"{'workload':18s} {'cluster size':>12s} {'dist to center':>15s}")
    print("-" * 48)
    for rep in subsetting.farthest:
        print(
            f"{rep.workload:18s} {rep.cluster_size:>12d} "
            f"{rep.distance_to_center:>15.4f}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ServiceConfig, serve

    log = get_logger("repro.cli.serve")
    collection = _collection(args)
    if isinstance(collection, int):
        return collection
    if args.workers > 1:
        from repro.service.store import resolve_cache_dir

        if resolve_cache_dir(args.cache_dir) is None:
            print(
                "repro: serve --workers > 1 needs --cache-dir (or "
                "$REPRO_CACHE_DIR): the store is the workers' shared state",
                file=sys.stderr,
            )
            return EXIT_USAGE
    config = ServiceConfig(
        collection=collection,
        cache_dir=args.cache_dir,
        workers=args.collection_workers,
    )
    if args.workers > 1:
        return _serve_prefork(args, config, log)
    server = serve(config, host=args.host, port=args.port, verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"repro characterization service on http://{host}:{port}")
    print(f"store: {server.service.store.root}")
    print(
        "endpoints: /workloads /metrics /metrics/catalog /stats "
        "/characterize/<name> /suite/matrix /subset?k=K|budget=S "
        "/observations /jobs"
    )

    def _request_shutdown(signum: int, _frame) -> None:
        # serve_forever() runs in this (main) thread, so shutdown() must
        # come from another thread or the handler deadlocks.
        log.info("shutdown signal received", extra={"signal": signum})
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGINT, _request_shutdown)
        signal.signal(signal.SIGTERM, _request_shutdown)
    except ValueError:  # pragma: no cover - only off the main thread
        pass  # signals are main-thread-only; fall back to KeyboardInterrupt
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        print("\nshutting down")
        server.shutdown()
        server.server_close()
        server.service.close()
        log.info("service stopped", extra={"port": port})
    return 0


def _serve_prefork(args: argparse.Namespace, config, log) -> int:
    """``repro serve --workers N``: N pre-fork server processes."""
    from repro.service.store import resolve_cache_dir
    from repro.service.supervisor import Supervisor

    try:
        supervisor = Supervisor(
            config,
            host=args.host,
            port=args.port,
            workers=args.workers,
            verbose=args.verbose,
        )
        host, port = supervisor.start()
    except ReproError as error:
        print(f"repro: {error}", file=sys.stderr)
        return EXIT_USAGE
    print(
        f"repro characterization service on http://{host}:{port} "
        f"({args.workers} workers)"
    )
    print(f"store: {resolve_cache_dir(args.cache_dir)}")

    def _request_shutdown(signum: int, _frame) -> None:
        log.info("shutdown signal received", extra={"signal": signum})
        supervisor.request_stop()

    try:
        signal.signal(signal.SIGINT, _request_shutdown)
        signal.signal(signal.SIGTERM, _request_shutdown)
    except ValueError:  # pragma: no cover - only off the main thread
        pass
    try:
        supervisor.run_forever()
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    except ReproError as error:
        print(f"repro: {error}", file=sys.stderr)
        supervisor.shutdown()
        return 1
    finally:
        print("\nshutting down")
        supervisor.shutdown()
        log.info("service stopped", extra={"port": port})
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Characterizing and Subsetting Big Data "
        "Workloads' (IISWC 2014)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error", "critical"),
        help="enable structured logging to stderr at this level",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as one JSON object per line instead of key=value",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the 32 Table I workloads")

    run_parser = subparsers.add_parser("run", help="execute one workload")
    run_parser.add_argument("workload", help="workload label, e.g. S-PageRank")
    _add_common(run_parser)
    _add_faults(run_parser)

    char_parser = subparsers.add_parser(
        "characterize", help="collect one workload's 45 metrics"
    )
    char_parser.add_argument("workload", help="workload label, e.g. H-Sort")
    _add_common(char_parser)
    _add_measurement(char_parser)
    _add_faults(char_parser)
    _add_timeline(char_parser)

    trace_parser = subparsers.add_parser(
        "trace",
        help="characterize one workload under the tracer, export Chrome "
        "trace (or --merge a fleet's per-process spills)",
        description="Run one workload's full characterization with tracing "
        "and the flight recorder on, write the spans as Chrome Trace Event "
        "Format JSON (chrome://tracing / Perfetto), and print a span summary. "
        "With --merge STORE_DIR, instead stitch every per-process trace "
        "spill under the store's telemetry directory into one multi-pid "
        "trace with labelled process lanes.",
    )
    trace_parser.add_argument(
        "workload", nargs="?", default=None,
        help="workload label, e.g. H-WordCount (omit with --merge)",
    )
    trace_parser.add_argument(
        "--merge", default=None, metavar="STORE_DIR",
        help="merge the fleet's per-process trace spills from this store "
        "directory instead of running a workload",
    )
    trace_parser.add_argument(
        "--out", default="trace.json", help="output trace file (Chrome JSON)"
    )
    trace_parser.add_argument(
        "--top", type=int, default=10, help="span-summary rows to print"
    )
    _add_common(trace_parser)
    _add_measurement(trace_parser)
    _add_faults(trace_parser)

    exp_parser = subparsers.add_parser(
        "experiment", help="reproduce every figure and table"
    )
    _add_common(exp_parser)
    _add_measurement(exp_parser)
    _add_workers(exp_parser)
    _add_faults(exp_parser)
    exp_parser.add_argument(
        "-o", "--out", default=None, help="write a report bundle to this directory"
    )

    obs_parser = subparsers.add_parser(
        "observations", help="score the paper's Observations 1-9"
    )
    _add_common(obs_parser)
    _add_measurement(obs_parser)
    _add_workers(obs_parser)
    _add_faults(obs_parser)

    report_parser = subparsers.add_parser(
        "report",
        help="render the suite as a self-contained HTML dashboard",
        description="Characterize the suite (timeline sampling on by "
        "default) and write ONE self-contained HTML file — inline SVG "
        "timelines, the suite z-score heatmap, and Figure-6 Kiviat "
        "diagrams; no scripts, no external assets.",
    )
    _add_common(report_parser)
    _add_measurement(report_parser)
    _add_workers(report_parser)
    _add_faults(report_parser)
    _add_timeline(report_parser, default_on=True)
    report_parser.add_argument(
        "--html", default="report.html", help="output HTML path"
    )
    report_parser.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="characterize only the first N suite workloads (default: all 32)",
    )
    report_parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="operating point for the coverage-vs-budget panel "
        "(default: half the pool's simulation cost)",
    )
    report_parser.add_argument(
        "--profile",
        default=None,
        metavar="PROFILE_JSON",
        help="embed this merged fleet profile (from `repro profile "
        "--out`) as a flamegraph panel",
    )

    subset_parser = subparsers.add_parser(
        "subset",
        help="pick a representative subset (paper's k clusters, or "
        "budget-aware with --budget)",
        description="Characterize the suite, then pick representatives: "
        "by K-means clusters (the paper's Table V path, --k) or by "
        "greedy submodular coverage per unit simulated-runtime cost "
        "under a --budget in seconds.  With --timeline (on by default) "
        "costs come from measured run durations.",
    )
    _add_common(subset_parser)
    _add_measurement(subset_parser)
    _add_workers(subset_parser)
    _add_faults(subset_parser)
    _add_timeline(subset_parser, default_on=True)
    subset_group = subset_parser.add_mutually_exclusive_group()
    subset_group.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="simulation-time budget; selects workloads maximizing "
        "PC-space coverage per unit cost",
    )
    subset_group.add_argument(
        "--k",
        type=int,
        default=None,
        help="force this many K-means clusters (default: BIC-chosen)",
    )
    subset_parser.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="characterize only the first N suite workloads (default: all 32)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the HTTP characterization service",
        description="Run the HTTP characterization service: a persistent "
        "store + single-flight job manager behind a stdlib JSON API "
        "(/workloads, /metrics, /characterize/<name>, /suite/matrix, "
        "/subset, /observations, /jobs).",
    )
    _add_common(serve_parser)
    _add_measurement(serve_parser)
    _add_faults(serve_parser)
    _add_timeline(serve_parser)
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="server processes sharing the listen socket (pre-fork; "
        ">1 needs a shared --cache-dir)",
    )
    serve_parser.add_argument(
        "--collection-workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes *within* one collection (1 = serial; any "
        "value yields a bit-identical matrix)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8321, help="TCP port (0 picks a free one)"
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-store directory (default: $REPRO_CACHE_DIR or a temp dir)",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log every request"
    )

    status_parser = subparsers.add_parser(
        "status",
        help="show the serving fleet's live workers and merged totals",
        description="Report per-worker liveness, restart counts, live "
        "jobs, request rates and latency quantiles for a running fleet — "
        "from GET /fleet of a live service, or directly from the metric "
        "shards in a store directory with --store.",
    )
    status_parser.add_argument(
        "--url", default="http://127.0.0.1:8321",
        help="service base URL (default: %(default)s)",
    )
    status_parser.add_argument(
        "--store", default=None, metavar="STORE_DIR",
        help="read the fleet's metric shards from this store directory "
        "instead of asking a live service",
    )
    status_parser.add_argument(
        "--timeout", type=float, default=10.0,
        help="HTTP timeout in seconds (default: %(default)s)",
    )

    profile_parser = subparsers.add_parser(
        "profile",
        help="capture a fleet-wide CPU profile with span attribution",
        description="Open a sampling window across every fleet process "
        "(servers, supervisor, pool workers), merge the per-pid spills "
        "and print the hottest span paths.  Talks to a live service's "
        "GET /profile by default; with --store it publishes the window "
        "through the store directory directly, so any fleet whose "
        "agents watch that store answers even without HTTP.",
    )
    profile_parser.add_argument(
        "--url", default="http://127.0.0.1:8321",
        help="service base URL (default: %(default)s)",
    )
    profile_parser.add_argument(
        "--store", default=None, metavar="STORE_DIR",
        help="coordinate the window through this store directory "
        "instead of a live service URL",
    )
    profile_parser.add_argument(
        "--seconds", type=float, default=3.0,
        help="sampling window length (default: %(default)s)",
    )
    profile_parser.add_argument(
        "--interval", type=float, default=5.0, metavar="MS",
        help="sampling period in milliseconds (default: %(default)s)",
    )
    profile_parser.add_argument(
        "--mode", choices=("wall", "cpu"), default="wall",
        help="wall samples elapsed time (parked threads show as idle); "
        "cpu samples on-CPU time only (default: %(default)s)",
    )
    profile_parser.add_argument(
        "--top", type=int, default=12, metavar="N",
        help="span paths to print (default: %(default)s)",
    )
    profile_parser.add_argument(
        "--out", default=None, metavar="PROFILE_JSON",
        help="also write the merged profile document as JSON",
    )
    profile_parser.add_argument(
        "--collapsed", default=None, metavar="PATH",
        help="also write collapsed-stack text (flamegraph.pl/speedscope)",
    )
    profile_parser.add_argument(
        "--flame", default=None, metavar="HTML",
        help="also write a self-contained flamegraph HTML page",
    )

    args = parser.parse_args(argv)
    if args.log_level is not None or args.log_json:
        # Only touch logging when asked: tests capture stdout/stderr and
        # the default CLI output stays exactly as before.
        configure_logging(
            level=args.log_level or "info", json_format=args.log_json
        )
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "characterize": _cmd_characterize,
        "trace": _cmd_trace,
        "experiment": _cmd_experiment,
        "observations": _cmd_observations,
        "report": _cmd_report,
        "subset": _cmd_subset,
        "serve": _cmd_serve,
        "status": _cmd_status,
        "profile": _cmd_profile,
    }
    try:
        return handlers[args.command](args)
    except ConfigurationError as error:
        print(f"repro: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
