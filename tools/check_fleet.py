#!/usr/bin/env python
"""CI gate for the fleet telemetry plane (``repro.obs.fleet``).

Boots a real pre-fork fleet — one supervisor, ``--serve-workers`` server
processes, and the collection pool workers behind them — drives a cold
suite collection through it with one correlation id, then asserts the
scrape-side contracts end to end:

0. ``GET /healthz`` answers ok and ``GET /readyz`` reports ready (with
   a fresh shard heartbeat) before any load is applied;
1. a single ``GET /metrics`` reports fleet totals that exactly match the
   per-process shard files on disk (quiescent counters, outcome by
   outcome), with ``per_worker`` gauges labelled instead of summed;
2. ``GET /fleet`` accounts for every process: N servers, the
   supervisor, and at least one pool worker;
3. ``GET /trace`` returns one merged Chrome trace with real events from
   at least three pids, labelled pid lanes, and the client's correlation
   id joining spans across processes — validated with the same checks
   ``tools/check_trace.py`` applies (``--min-pids``,
   ``--require-process-names``).

Usage::

    python tools/check_fleet.py [--serve-workers 2] [--out trace.json]

Exits 0 when every gate holds, 1 with diagnostics otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import tempfile
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.collection import CollectionConfig  # noqa: E402
from repro.cluster.testbed import MeasurementConfig  # noqa: E402
from repro.obs.fleet import load_shard, telemetry_dir  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.server import ServiceConfig  # noqa: E402
from repro.service.supervisor import Supervisor  # noqa: E402
from repro.workloads.suite import SUITE  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "check_trace", REPO_ROOT / "tools" / "check_trace.py"
)
check_trace_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_trace_module)

#: Quiescent counter families: nothing bumps them between the scrape
#: and our direct shard read, so exposition and shard sums must agree
#: exactly.  (HTTP counters move with every probe we send, so they get
#: a weaker >= check.)
EXACT_FAMILIES = ("repro_pool_tasks_total", "repro_worker_restarts_total")


def _exposition_values(text: str, name: str) -> dict[str, float]:
    """``{labelled_sample: value}`` for one metric family."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.startswith(name):
            continue
        sample, _, value = line.rpartition(" ")
        if sample == name or sample.startswith(name + "{"):
            values[sample] = float(value)
    return values


def _shard_sums(store: str) -> dict[str, float]:
    """Per-family counter sums straight from the shard files on disk."""
    sums: dict[str, float] = {}
    for path in sorted(telemetry_dir(store, "metrics").glob("*.json")):
        shard = load_shard(path)
        if shard is None:
            continue
        for name, entry in shard.metrics.items():
            if entry.get("kind") in ("counter", "gauge"):
                sums[name] = sums.get(name, 0.0) + shard.counter_total(name)
    return sums


def run_gate(serve_workers: int, out: str | None) -> list[str]:
    """Drive the fleet and return every gate violation (empty = pass)."""
    problems: list[str] = []
    config = ServiceConfig(
        collection=CollectionConfig(
            scale=0.2,
            seed=23,
            measurement=MeasurementConfig(
                slaves_measured=1,
                active_cores=2,
                ops_per_core=1000,
                perf_repeats=2,
            ),
        ),
        workloads=SUITE[:2],
        cache_dir=tempfile.mkdtemp(prefix="repro-fleet-gate-"),
        workers=2,  # collections fan out to real pool worker processes
    )
    correlation = "fleet-gate"
    with Supervisor(config, port=0, workers=serve_workers) as sup:
        base = f"http://{sup.host}:{sup.port}"
        client = ServiceClient(base, correlation_id=correlation)

        # Touch every server worker so each records correlated spans.
        instances = set()
        for _ in range(100 * serve_workers):
            instances.add(client.info()["instance"])
            if len(instances) == serve_workers:
                break
        if len(instances) != serve_workers:
            problems.append(
                f"probes reached {len(instances)} of {serve_workers} workers"
            )

        # -- gate 0: health probes --------------------------------------
        health = client.healthz()
        if health.get("ok") is not True:
            problems.append(f"/healthz not ok: {health}")
        ready = client.readyz()
        if ready.get("ready") is not True:
            problems.append(f"/readyz not ready: {ready}")
        print(
            f"check_fleet: /healthz ok from {health.get('instance')}, "
            f"/readyz ready from {ready.get('instance')}"
        )

        matrix = client.matrix()  # the cold collection, through the pool
        print(f"check_fleet: collected {len(matrix['workloads'])} workloads")

        # -- gate 1: /metrics totals == per-shard sums ------------------
        text = client.runtime_metrics()
        sums = _shard_sums(config.cache_dir)
        for family in EXACT_FAMILIES:
            exposed = sum(_exposition_values(text, family).values())
            on_disk = sums.get(family, 0.0)
            if exposed != on_disk:
                problems.append(
                    f"{family}: exposition says {exposed}, "
                    f"shard files sum to {on_disk}"
                )
        if sum(_exposition_values(text, "repro_pool_tasks_total").values()) <= 0:
            problems.append("no pool tasks were counted fleet-wide")
        requests_exposed = sum(
            _exposition_values(text, "repro_http_requests_total").values()
        )
        if requests_exposed <= 0:
            problems.append("no HTTP requests in the merged exposition")
        entries = _exposition_values(text, "repro_store_entries")
        if not entries or not all('worker="' in s for s in entries):
            problems.append(
                f"per-worker gauge not labelled per worker: {sorted(entries)}"
            )

        # -- gate 2: /fleet accounts for every process ------------------
        fleet = client.fleet()
        roles = [w["role"] for w in fleet["workers"]]
        if roles.count("server") != serve_workers:
            problems.append(
                f"/fleet sees {roles.count('server')} servers, "
                f"want {serve_workers}"
            )
        if roles.count("supervisor") != 1:
            problems.append(f"/fleet roles missing the supervisor: {roles}")
        if roles.count("pool") < 1:
            problems.append(f"/fleet roles missing pool workers: {roles}")
        if fleet["totals"]["restarts_total"] != 0:
            problems.append(
                f"unexpected restarts: {fleet['totals']['restarts_total']}"
            )
        if fleet.get("health", {}).get("ready") is not True:
            problems.append(
                f"/fleet health block not ready: {fleet.get('health')}"
            )
        print(
            f"check_fleet: /fleet sees {fleet['totals']['processes']} "
            f"processes ({roles.count('server')} servers, "
            f"{roles.count('pool')} pool)"
        )

        # -- gate 3: merged multi-pid trace, one correlation id ---------
        merged = client.merged_trace()
        trace_problems = check_trace_module.check_trace(
            merged, min_events=3, min_pids=3, require_process_names=True
        )
        problems.extend(f"merged trace: {p}" for p in trace_problems)
        correlated_pids = {
            event["pid"]
            for event in merged["traceEvents"]
            if event.get("args", {}).get("correlation_id") == correlation
        }
        if len(correlated_pids) < 3:
            problems.append(
                f"correlation id {correlation!r} joins only "
                f"{len(correlated_pids)} pids, want >= 3"
            )
        print(
            f"check_fleet: merged trace has "
            f"{len(merged['otherData']['pids'])} pid lanes, correlation "
            f"spans {len(correlated_pids)} pids"
        )
        if out:
            Path(out).write_text(json.dumps(merged))
            print(f"check_fleet: merged trace written to {out}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--serve-workers",
        type=int,
        default=2,
        help="pre-fork server processes to run (default 2)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the merged fleet trace to this path",
    )
    args = parser.parse_args(argv)

    problems = run_gate(args.serve_workers, args.out)
    if problems:
        for problem in problems:
            print(f"check_fleet: FAIL {problem}", file=sys.stderr)
        return 1
    print("check_fleet: all fleet telemetry gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
