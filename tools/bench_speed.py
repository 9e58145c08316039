"""Benchmark the simulator hot path and parallel suite collection.

Usage::

    python tools/bench_speed.py            # full benchmark, ~1 minute
    python tools/bench_speed.py --smoke    # 2 workloads, a few seconds
    python tools/bench_speed.py --check    # also enforce regression floors
    python tools/bench_speed.py -o out.json --workers 8

Measurements, written to ``BENCH_speed.json`` so future PRs can track
the performance trajectory:

1. **Single-thread hot path** — wall time of three
   ``Processor.run_workload`` passes over one workload's phase profiles
   (best of three trials).  ``single_thread.speedup_vs_seed`` compares
   against the seed-revision time recorded for this exact microbenchmark
   (``SEED_BASELINE_S``); absolute numbers are machine-dependent, the
   ratio on one machine is the tracked quantity.
2. **Engine bit identity** — a hard assertion that the shipping engine
   and the per-op test oracle (``tests/arch/reference_engine.py``)
   produce bit-identical event totals *and* leave the RNG in the
   identical state on the same profiles.
3. **Parallel collection scaling** — ``characterize_suite`` over an
   8-workload subset with ``workers=1`` vs ``workers=N`` (the
   persistent worker pool), asserting the two metric matrices are
   bit-identical before reporting the speedup.  Parallel wall-clock
   numbers are only meaningful when the process can actually use
   multiple CPUs — ``environment.parallel_meaningful`` records that.
4. **Tracing no-op overhead** — per-call cost of the disabled
   ``repro.obs.trace.span`` helper, projected onto the span count of a
   real traced run; the observability acceptance bar is <2% of the
   untraced wall time.
5. **Timeline sampling overhead** — wall time of a full characterization
   with the interval sampler on vs off (metrics asserted bit-identical
   first); the acceptance bar is <5% of the unsampled wall time.

With ``--check`` the script exits non-zero if any regression floor is
violated (see ``check_results``) — CI runs ``--smoke --check`` pinned
to two cores.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
import sys  # noqa: E402

sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.arch.processor import Processor  # noqa: E402
from repro.cluster import collection  # noqa: E402
from repro.cluster.collection import CollectionConfig, characterize_suite  # noqa: E402
from repro.cluster.testbed import Cluster, MeasurementConfig  # noqa: E402
from repro.obs.ledger import (  # noqa: E402
    append_record,
    baseline_for,
    diff_records,
    format_diff,
    load_history,
    profile_digest,
)
from repro.obs.prof import Profiler  # noqa: E402
from repro.obs.stats import Stopwatch, best_of  # noqa: E402
from repro.obs.timeline import TimelineConfig  # noqa: E402
from repro.obs.trace import Tracer, span, tracing  # noqa: E402
from repro.service.store import CACHE_DIR_ENV  # noqa: E402
from repro.stacks.instrument import profiles_from_trace  # noqa: E402
from repro.workloads.base import RunContext  # noqa: E402
from repro.workloads.suite import SUITE  # noqa: E402
from tests.arch import reference_engine  # noqa: E402

#: Acceptance bar: disabled tracing must cost less than this fraction of
#: the untraced run.
TRACING_OVERHEAD_BUDGET_PCT = 2.0

#: Acceptance bar: timeline sampling (interval sampler ON) must cost
#: less than this fraction of an unsampled characterization.
TIMELINE_OVERHEAD_BUDGET_PCT = 5.0

#: Seed-revision wall time of `_time_single_thread` (same parameters, same
#: reference machine) before the allocation-free hot-loop overhaul.
#: Update when the microbenchmark itself changes shape.
SEED_BASELINE_S = 2.380

#: ``--check`` floor on ``single_thread.speedup_vs_seed``.  The batched
#: engine sustains ~3x on an idle reference machine, but the baseline is
#: a recorded constant while shared hosts drift ±40% between runs — so
#: this absolute floor is deliberately loose (it catches "the
#: optimization fell off a cliff", not small slips).
SINGLE_THREAD_SPEEDUP_FLOOR = 1.8

#: ``--check`` floor on ``collection.parallel_speedup`` — enforced only
#: when ``environment.parallel_meaningful`` (≥2 usable CPUs): with the
#: persistent pool, two workers on two cores must beat serial.
PARALLEL_SPEEDUP_FLOOR = 1.2

_MICRO_REPEATS = 3  # run_workload passes per trial
_MICRO_TRIALS = 3  # trials; best is reported


def _environment() -> dict:
    """CPU visibility of this process — what parallel numbers mean here.

    ``cpu_count`` is what the machine has; ``cpus_usable`` is what the
    scheduler will actually give this process (cgroup/affinity-limited
    CI runners differ).  Parallel wall-clock speedups recorded on a
    <2-CPU host measure scheduling overhead, not scaling — the
    ``parallel_meaningful`` flag marks them as such and gates the
    ``--check`` floor.
    """
    cpu_count = os.cpu_count() or 1
    try:
        cpus_usable = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus_usable = cpu_count
    return {
        "cpu_count": cpu_count,
        "cpus_usable": cpus_usable,
        "parallel_meaningful": cpus_usable >= 2,
    }


def _workload_profiles():
    """The phase profiles both microbenchmarks simulate."""
    workload = SUITE[0]
    context = RunContext(scale=0.5, seed=42)
    run = workload.run(context)
    actual_input = max((r.bytes_in for r in run.trace.records), default=1)
    scale = max(1.0, workload.declared_bytes / max(1, actual_input))
    return profiles_from_trace(
        run.trace, workload.hints, num_workers=4, footprint_scale=scale
    )


def _time_single_thread(trials: int = _MICRO_TRIALS) -> float:
    """Best wall time of ``_MICRO_REPEATS`` run_workload passes."""
    profiles = _workload_profiles()

    def passes() -> None:
        for _ in range(_MICRO_REPEATS):
            processor = Processor()
            rng = np.random.default_rng(1234)
            processor.run_workload(
                profiles, rng, active_cores=3, ops_per_core=4000
            )

    passes()  # warm allocator/numpy paths so 1-trial smoke runs are stable
    return best_of(passes, trials)


def _compare_engines() -> dict:
    """Shipping engine vs the per-op test oracle: bit identity.

    Bit identity is the invariant the whole batched design rests on:
    identical event totals *and* an identical final RNG state (the
    simulation consumes no randomness; all draws happen at synthesis in
    an unchanged order).
    """
    profiles = _workload_profiles()
    kwargs = dict(active_cores=3, ops_per_core=4000)

    shipping_rng = np.random.default_rng(1234)
    shipping = Processor().run_workload(profiles, shipping_rng, **kwargs)
    oracle_rng = np.random.default_rng(1234)
    oracle = reference_engine.run_workload(
        Processor(), profiles, oracle_rng, **kwargs
    )
    if (
        shipping != oracle
        or shipping_rng.bit_generator.state != oracle_rng.bit_generator.state
    ):
        raise AssertionError(
            "the simulation engine diverged from the per-op oracle "
            "(event totals or RNG state differ)"
        )
    return {"bit_identical": True}


def _time_collection(n_workloads: int, workers: int) -> tuple[float, object]:
    """Wall time of one cold suite collection; returns (seconds, matrix).

    ``REPRO_CACHE_DIR`` is scrubbed for the duration: a populated store
    would turn the "collection" into a hydration benchmark.
    """
    config = CollectionConfig(
        scale=0.5,
        seed=42,
        measurement=MeasurementConfig(
            slaves_measured=1, active_cores=3, ops_per_core=4000
        ),
    )
    collection._MEMO.clear()  # force a cold collection
    saved_cache_dir = os.environ.pop(CACHE_DIR_ENV, None)
    try:
        with Stopwatch() as sw:
            suite = characterize_suite(
                SUITE[:n_workloads], config, workers=workers
            )
    finally:
        if saved_cache_dir is not None:
            os.environ[CACHE_DIR_ENV] = saved_cache_dir
    return sw.seconds, suite.matrix


def _time_tracing(smoke: bool) -> dict:
    """No-op tracing overhead: disabled span cost × spans per real run.

    The engines' span sites are always present, so the disabled path
    cannot be measured by diffing two runs of the same code — instead we
    measure the per-call cost of the disabled helper directly and
    project it onto the span count a traced run of the same workload
    actually records.
    """
    workload = SUITE[0]
    context = RunContext(scale=0.3 if smoke else 0.5, seed=42)
    workload.run(context)  # warm caches before timing
    untraced_s = best_of(lambda: workload.run(context), 2 if smoke else 3)

    tracer = Tracer()
    with tracing(tracer):
        workload.run(context)
    spans_per_run = len(tracer)

    calls = 50_000 if smoke else 200_000

    def hammer() -> None:
        for _ in range(calls):
            with span("bench-noop", "bench", worker=0):
                pass

    noop_span_s = best_of(hammer, 3) / calls
    overhead_pct = 100.0 * (spans_per_run * noop_span_s) / untraced_s
    return {
        "untraced_run_seconds": round(untraced_s, 4),
        "spans_per_run": spans_per_run,
        "noop_span_ns": round(noop_span_s * 1e9, 1),
        "overhead_pct": round(overhead_pct, 4),
        "budget_pct": TRACING_OVERHEAD_BUDGET_PCT,
        "within_budget": overhead_pct < TRACING_OVERHEAD_BUDGET_PCT,
    }


def _time_timeline(smoke: bool) -> dict:
    """Timeline-sampler overhead: characterization wall time on vs off.

    Asserts the 45-metric vector is bit-identical first — overhead is
    only worth measuring for a sampler that observes without perturbing.
    """
    workload = SUITE[0]
    context = RunContext(scale=0.3 if smoke else 0.5, seed=42)
    measurement = MeasurementConfig(
        slaves_measured=1,
        active_cores=3,
        ops_per_core=2000 if smoke else 4000,
    )
    config = TimelineConfig(interval_ms=5.0)

    plain = Cluster().characterize_workload(workload, context, measurement)
    sampled = Cluster().characterize_workload(
        workload, context, measurement, timeline=config
    )
    if sampled.metrics != plain.metrics:
        raise AssertionError("timeline sampling changed the metric vector")
    if sampled.per_slave != plain.per_slave:
        raise AssertionError("timeline sampling changed per-slave metrics")

    # Each run is short (~0.5s) and shared hosts jitter ±20% — more
    # than the 5% budget — so off/on are timed in interleaved pairs
    # (both legs of a pair see the same host weather) and the reported
    # overhead is the cleanest pair's ratio, the paired analogue of
    # ``best_of``.
    trials = 2 if smoke else 5
    pairs: list[tuple[float, float]] = []
    for _ in range(trials):
        off_i = best_of(
            lambda: Cluster().characterize_workload(
                workload, context, measurement
            ),
            1,
        )
        on_i = best_of(
            lambda: Cluster().characterize_workload(
                workload, context, measurement, timeline=config
            ),
            1,
        )
        pairs.append((off_i, on_i))
    off_s, on_s = min(pairs, key=lambda pair: pair[1] / pair[0])
    overhead_pct = max(0.0, 100.0 * (on_s - off_s) / off_s)
    return {
        "unsampled_seconds": round(off_s, 4),
        "sampled_seconds": round(on_s, 4),
        "samples_per_run": len(sampled.timeline),
        "overhead_pct": round(overhead_pct, 4),
        "budget_pct": TIMELINE_OVERHEAD_BUDGET_PCT,
        "within_budget": overhead_pct < TIMELINE_OVERHEAD_BUDGET_PCT,
        "bit_identical": True,
    }


def run_benchmark(workers: int, smoke: bool) -> dict:
    n_workloads = 2 if smoke else 8
    workers = min(workers, n_workloads)
    environment = _environment()
    if not environment["parallel_meaningful"]:
        print(
            f"note: {environment['cpus_usable']} usable CPU(s) — parallel "
            "wall-clock numbers are not meaningful on this host"
        )

    print(f"single-thread hot path ({_MICRO_REPEATS} run_workload passes) ...")
    single = _time_single_thread(trials=2 if smoke else _MICRO_TRIALS)
    speedup = SEED_BASELINE_S / single
    print(f"  {single:.3f}s  ({speedup:.2f}x vs seed baseline {SEED_BASELINE_S}s)")

    print("simulation engine vs per-op oracle ...")
    engine_stats = _compare_engines()
    print("  bit-identical: OK")

    print(f"suite collection, {n_workloads} workloads, workers=1 ...")
    serial_s, serial_matrix = _time_collection(n_workloads, workers=1)
    print(f"  {serial_s:.2f}s")
    print(f"suite collection, {n_workloads} workloads, workers={workers} ...")
    parallel_s, parallel_matrix = _time_collection(n_workloads, workers=workers)
    print(f"  {parallel_s:.2f}s  ({serial_s / parallel_s:.2f}x)")

    if not np.array_equal(serial_matrix.values, parallel_matrix.values):
        raise AssertionError("parallel matrix diverged from serial matrix")
    if serial_matrix.workloads != parallel_matrix.workloads:
        raise AssertionError("parallel workload order diverged from serial")
    print("  parallel matrix bit-identical to serial: OK")

    print("tracing no-op overhead ...")
    tracing_stats = _time_tracing(smoke)
    print(
        f"  {tracing_stats['noop_span_ns']}ns per disabled span × "
        f"{tracing_stats['spans_per_run']} spans = "
        f"{tracing_stats['overhead_pct']}% of the untraced run "
        f"(budget {TRACING_OVERHEAD_BUDGET_PCT}%)"
    )
    if not tracing_stats["within_budget"]:
        raise AssertionError(
            f"disabled tracing costs {tracing_stats['overhead_pct']}% "
            f"(budget {TRACING_OVERHEAD_BUDGET_PCT}%)"
        )

    print("timeline sampling overhead ...")
    timeline_stats = _time_timeline(smoke)
    print(
        f"  sampled {timeline_stats['sampled_seconds']}s vs unsampled "
        f"{timeline_stats['unsampled_seconds']}s = "
        f"{timeline_stats['overhead_pct']}% "
        f"({timeline_stats['samples_per_run']} samples, "
        f"budget {TIMELINE_OVERHEAD_BUDGET_PCT}%)"
    )
    if not timeline_stats["within_budget"]:
        raise AssertionError(
            f"timeline sampling costs {timeline_stats['overhead_pct']}% "
            f"(budget {TIMELINE_OVERHEAD_BUDGET_PCT}%)"
        )

    return {
        "smoke": smoke,
        "environment": environment,
        "single_thread": {
            "bench_seconds": round(single, 4),
            "seed_baseline_seconds": SEED_BASELINE_S,
            "speedup_vs_seed": round(speedup, 3),
        },
        "engine": engine_stats,
        "collection": {
            "n_workloads": n_workloads,
            "workers": workers,
            "serial_seconds": round(serial_s, 3),
            "parallel_seconds": round(parallel_s, 3),
            "parallel_speedup": round(serial_s / parallel_s, 3),
            "persistent_pool": True,
            "bit_identical": True,
        },
        "tracing": tracing_stats,
        "timeline": timeline_stats,
    }


def _profiled_pass_digest() -> dict:
    """A span-attributed profile digest of one traced hot-path pass.

    Uses the *thread* clock deliberately: the bench must not install
    signal handlers (it may be embedded under pytest), and a single
    CPU-bound pass gives the wall sampler plenty of busy samples.  The
    digest rides on the ledger record so a future failing run can name
    the frames that grew, not just the number that dropped.
    """
    profiles = _workload_profiles()
    tracer = Tracer()
    profiler = Profiler(clock="thread", interval_ms=2.0).start()
    try:
        with tracing(tracer), tracer.span("bench:speed:single-thread"):
            processor = Processor()
            rng = np.random.default_rng(1234)
            processor.run_workload(
                profiles, rng, active_cores=3, ops_per_core=4000
            )
    finally:
        doc = profiler.stop()
    return profile_digest(doc)


def _ledger_headline(results: dict) -> dict:
    return {
        "single_thread_speedup": results["single_thread"]["speedup_vs_seed"],
        "single_thread_seconds": results["single_thread"]["bench_seconds"],
        "parallel_speedup": results["collection"]["parallel_speedup"],
        "tracing_overhead_pct": results["tracing"]["overhead_pct"],
        "tracing_noop_span_ns": results["tracing"]["noop_span_ns"],
        "timeline_overhead_pct": results["timeline"]["overhead_pct"],
    }


def check_results(results: dict) -> list[str]:
    """The ``--check`` regression gate; returns human-readable failures.

    Bit-identity failures already raise inside ``run_benchmark`` (they
    are never tolerable); the floors here catch *performance*
    regressions.  The parallel floor only applies on hosts where
    parallel wall-clock time means anything.
    """
    failures: list[str] = []
    speedup = results["single_thread"]["speedup_vs_seed"]
    if speedup < SINGLE_THREAD_SPEEDUP_FLOOR:
        failures.append(
            f"single-thread speedup {speedup}x is below the "
            f"{SINGLE_THREAD_SPEEDUP_FLOOR}x floor"
        )
    if not results["engine"]["bit_identical"]:
        failures.append("simulation engine is not bit-identical to the oracle")
    if not results["collection"]["bit_identical"]:
        failures.append("parallel collection is not bit-identical to serial")
    if results["environment"]["parallel_meaningful"]:
        parallel = results["collection"]["parallel_speedup"]
        if parallel < PARALLEL_SPEEDUP_FLOOR:
            failures.append(
                f"parallel collection speedup {parallel}x is below the "
                f"{PARALLEL_SPEEDUP_FLOOR}x floor "
                f"({results['environment']['cpus_usable']} usable CPUs)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast mode: 2 workloads, 1 trial — asserts the benchmark "
        "completes and emits JSON",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="enforce regression floors (single-thread speedup, engine "
        "bit-identity, parallel scaling on multi-core hosts); exit 1 on "
        "violation",
    )
    parser.add_argument("--workers", type=int, default=4, help="parallel worker count")
    parser.add_argument(
        "-o",
        "--out",
        default=str(REPO_ROOT / "BENCH_speed.json"),
        help="output JSON path",
    )
    parser.add_argument(
        "--history",
        default=str(REPO_ROOT / "benchmarks" / "history.jsonl"),
        help="perf-regression ledger appended to in --check mode",
    )
    args = parser.parse_args(argv)

    results = run_benchmark(workers=args.workers, smoke=args.smoke)
    out_path = Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")

    if args.check:
        failures = check_results(results)
        print("profiling one traced hot-path pass for the ledger ...")
        try:
            digest = _profiled_pass_digest()
        except Exception as error:  # the ledger must never fail the gate
            print(f"  profile digest skipped: {error}", file=sys.stderr)
            digest = None
        record = append_record(
            args.history,
            bench="speed",
            headline=_ledger_headline(results),
            status="fail" if failures else "pass",
            failures=failures,
            profile=digest,
        )
        print(f"ledger: appended {record['status']} record to {args.history}")
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            baseline = baseline_for(load_history(args.history), record)
            if baseline is not None:
                print(
                    format_diff(diff_records(baseline, record)),
                    file=sys.stderr,
                )
            return 1
        print("all regression checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
