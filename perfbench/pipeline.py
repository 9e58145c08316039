"""One cold characterize -> subset pipeline, in a process of its own.

The parent (``run.py``) starts this file as a fresh interpreter with the
repository's ``src`` on ``PYTHONPATH`` and a JSON request as its only
argument; it answers with JSON lines on stdout.  The first line,
``{"ready": true}``, goes out once the imports are done and a
:class:`~repro.cluster.testbed.Cluster` is built; the parent's clock on
that line is the sample's set-up time.  The last line is the result.

Request kinds:

``setup``
    Stop at ready (extra set-up samples).
``pipeline``
    A cold, serial collection of all 32 workloads with no store, then the
    statistics: PCA, linkage, BIC/K-means, representatives and a
    budgeted-selection sweep.
``traced``
    The same cold pipeline with every layer's public functions wrapped
    (:mod:`layers`), then an in-process replay of the service fill: a
    2-worker pool collection into a fresh store and a memo-cleared
    hydration from it.

Every cold collection asserts that ``collection_runs()`` went up by
exactly one, so a memo or store hit can never pass for a fast run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import time

from layers import (
    PIPELINE_LAYERS,
    LayerClock,
    compute_layers,
    install,
    store_layers,
)

#: The budget sweep: each budget affords exactly this many workloads of
#: the greedy ranking, so a selection does the same work for every seed.
SWEEP_PICKS = (2, 4, 8, 16, 24)

#: Cluster count requested from the fixed-K subsetting path.
FIXED_K = 6


def matrix_digest(workloads, values) -> str:
    """sha256 of the matrix: its row labels and its float64 values."""
    import numpy as np

    digest = hashlib.sha256("|".join(workloads).encode("utf-8"))
    digest.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return digest.hexdigest()


def collection_config(request: dict):
    from repro.cluster.collection import CollectionConfig
    from repro.cluster.testbed import MeasurementConfig

    return CollectionConfig(
        scale=request["scale"],
        seed=request["seed"],
        measurement=MeasurementConfig(
            slaves_measured=request["slaves"],
            active_cores=request["cores"],
            ops_per_core=request["ops"],
        ),
    )


class NoClock:
    """Stands in for a :class:`LayerClock` on untraced runs."""

    def span(self, layer):
        return contextlib.nullcontext()


def budgets_for(ranking) -> list[float]:
    """The sweep's budgets in seconds, from a greedy ranking."""
    return [
        float(ranking[picks - 1].cumulative_cost_s)
        for picks in SWEEP_PICKS
        if picks <= len(ranking)
    ]


def statistics(suite, clock) -> dict:
    """PCA -> linkage -> BIC/K-means -> representatives, then budgets."""
    from repro.analysis.figures import figure5
    from repro.core.pca import fit_pca
    from repro.core.subsetting import subset_workloads
    from repro.subset.cost import estimate_costs
    from repro.subset.select import greedy_ranking, select_budgeted

    result = subset_workloads(suite.matrix)
    fixed = subset_workloads(suite.matrix, k_min=FIXED_K, k_max=FIXED_K)
    with clock.span("subset.select"):
        costs = estimate_costs(suite.characterizations)
    with clock.span("core.pca"):
        points = fit_pca(suite.matrix.values).scores
    labels = suite.matrix.workloads
    selections = {}
    with clock.span("subset.select"):
        budgets = budgets_for(greedy_ranking(points, labels, costs))
        for budget in budgets:
            selections[repr(budget)] = list(
                select_budgeted(points, labels, costs, budget).workloads
            )
    return {
        "kaiser_pcs": result.pca.n_kept,
        "retained_variance": result.pca.retained_variance,
        "bic_k": result.clustering.k,
        "representatives": list(result.representative_subset),
        "fixed_k_representatives": list(fixed.representative_subset),
        "agreement_pct": 100.0 * figure5(suite.matrix).agreement_fraction,
        "budgets": budgets,
        "selections": selections,
    }


def check_workloads(suite) -> list[str]:
    """Names of workloads whose correctness self-checks failed."""
    from repro.cluster.collection import _verify_characterization
    from repro.errors import AnalysisError

    failed = []
    for characterization in suite.characterizations:
        try:
            _verify_characterization(characterization)
        except AnalysisError:
            failed.append(characterization.name)
    return failed


def cold_pipeline(config, clock, workloads=None) -> dict:
    """Collect the suite (default: all 32 workloads) cold, serially, then
    run the statistics.

    ``fill_s`` and ``pipeline_s`` are process CPU seconds: the pipeline is
    serial, so on a host of its own that is its wall time, and unlike wall
    time it leaves out the time a hypervisor gives other guests.  The
    wall times are returned too.
    """
    from repro.cluster.collection import characterize_suite, collection_runs
    from repro.workloads.suite import SUITE

    runs_before = collection_runs()
    start, start_cpu = time.perf_counter(), time.process_time()
    with clock.span("cluster"):
        suite = characterize_suite(
            workloads or SUITE, config=config, workers=1, verify_checks=False
        )
    filled, filled_cpu = time.perf_counter(), time.process_time()
    stats = statistics(suite, clock)
    done, done_cpu = time.perf_counter(), time.process_time()
    if collection_runs() != runs_before + 1:
        raise RuntimeError("the cold collection did not run exactly once")
    return {
        "suite": suite,
        "fill_s": filled_cpu - start_cpu,
        "pipeline_s": done_cpu - start_cpu,
        "fill_wall_s": filled - start,
        "pipeline_wall_s": done - start,
        "matrix_sha256": matrix_digest(suite.matrix.workloads, suite.matrix.values),
        "failed_workloads": check_workloads(suite),
        "workloads": len(suite.characterizations),
        **stats,
    }


def pool_replay(config, store_dir: str, matrix_sha256: str) -> dict:
    """The service fill, in process: pool collection into a fresh store,
    then a memo-cleared hydration from that store."""
    from repro.cluster import collection
    from repro.cluster.pool import shutdown_pools
    from repro.service.store import ResultStore

    clock = LayerClock()
    collection._MEMO.clear()
    runs = collection.collection_runs()
    try:
        with install(clock, store_layers):
            start = time.perf_counter()
            with clock.span("cluster.pool"):
                pooled = collection.characterize_suite(
                    config=config, cache_dir=store_dir, workers=2,
                    verify_checks=False,
                )
            collect_s = time.perf_counter() - start
    finally:
        shutdown_pools()
    collection._MEMO.clear()
    start = time.perf_counter()
    hydrated = collection.characterize_suite(
        config=config, cache_dir=store_dir, workers=1, verify_checks=False
    )
    hydrate_s = time.perf_counter() - start
    checks = {
        "pool_collected_once": collection.collection_runs() == runs + 1,
        "pool_matrix_equal": matrix_digest(
            pooled.matrix.workloads, pooled.matrix.values
        ) == matrix_sha256,
        "hydrated_matrix_equal": matrix_digest(
            hydrated.matrix.workloads, hydrated.matrix.values
        ) == matrix_sha256,
    }
    return {
        "cluster.pool.collect_s": collect_s,
        "service.store.write_s": clock.self_time["service.store.write"],
        "service.store.hydrate_s": hydrate_s,
        "service.store.bytes": ResultStore(store_dir).total_bytes(),
        "checks": checks,
    }


def layer_metrics(clock: LayerClock, wall_s: float) -> dict:
    """The per-layer figures of a traced pipeline (see BENCHMARK.json)."""
    self_s = clock.self_time
    simulate = self_s["arch.simulate"]
    metrics = {
        "datagen.busy_s": self_s["datagen"],
        "stacks.busy_s": self_s["stacks"],
        "stacks.hadoop_s": clock.counts["stacks.hadoop_s"],
        "stacks.spark_s": clock.counts["stacks.spark_s"],
        "stacks.hive_s": clock.counts["stacks.hive_s"],
        "stacks.shark_s": clock.counts["stacks.shark_s"],
        "stacks.instrument_s": self_s["stacks.instrument"],
        "stacks.phases": clock.counts["stacks.phases"],
        "arch.plan_s": self_s["arch.plan"],
        "arch.simulate_s": simulate,
        "arch.sim_ops": clock.counts["arch.sim_ops"],
        "arch.sim_ops_per_s": clock.counts["arch.sim_ops"] / simulate,
        "perf.profile_s": self_s["perf.profile"],
        "metrics.derive_s": self_s["metrics.derive"],
        "cluster.self_s": self_s["cluster"],
        "core.pca_s": self_s["core.pca"],
        "core.linkage_s": self_s["core.linkage"],
        "core.bic_s": self_s["core.bic"],
        "core.representatives_s": self_s["core.representatives"],
        "subset.select_s": self_s["subset.select"],
    }
    accounted = sum(metrics[name] for name in PIPELINE_LAYERS)
    return {
        "layers": metrics,
        "wall_s": wall_s,
        "coverage_pct": 100.0 * accounted / wall_s,
    }


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)


def main(request: dict) -> int:
    from repro.cluster.testbed import Cluster

    Cluster()
    _emit({"ready": True})
    if request["kind"] == "setup":
        _emit({"kind": "setup"})
        return 0
    config = collection_config(request)
    if request["kind"] == "pipeline":
        result = cold_pipeline(config, NoClock())
        result.pop("suite")
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    elif request["kind"] == "traced":
        clock = LayerClock()
        with install(clock, compute_layers):
            result = cold_pipeline(config, clock)
        result.pop("suite")
        result.update(layer_metrics(clock, result["pipeline_wall_s"]))
        result["replay"] = pool_replay(
            config, request["store"], result["matrix_sha256"]
        )
    else:
        raise ValueError(f"unknown request kind {request['kind']!r}")
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
