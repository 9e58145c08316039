"""Evaluation harness: baselines, gates, JSON safety."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster import CollectionConfig, MeasurementConfig, characterize_suite
from repro.core.pca import fit_pca
from repro.core.subsetting import subset_workloads
from repro.errors import SubsetError
from repro.obs.timeline import TimelineConfig
from repro.subset.cost import WorkloadCost, estimate_costs
from repro.subset.evaluate import DEFAULT_FRACTIONS, evaluate_sweep
from repro.workloads import SUITE


def _pool(rng, n=16):
    points = rng.normal(size=(n, 3))
    labels = tuple(f"wl-{i:02d}" for i in range(n))
    costs = tuple(
        WorkloadCost(
            workload=label,
            seconds=float(0.5 + rng.random() * 3.0),
            source="op-count",
            raw_units=1.0,
        )
        for label in labels
    )
    return points, labels, costs


class TestEvaluateSweep:
    def test_budgeted_dominates_random_on_structured_pool(self, rng):
        points, labels, costs = _pool(rng)
        result = evaluate_sweep(points, labels, costs, seed=5)
        assert result["summary"]["all_dominate_random"]
        assert result["summary"]["deterministic"]
        assert result["summary"]["mean_coverage_lift"] > 0

    def test_sweep_covers_requested_fractions(self, rng):
        points, labels, costs = _pool(rng)
        result = evaluate_sweep(points, labels, costs)
        assert [row["fraction"] for row in result["budgets"]] == list(
            DEFAULT_FRACTIONS
        )

    def test_coverage_monotone_across_sweep(self, rng):
        points, labels, costs = _pool(rng)
        result = evaluate_sweep(points, labels, costs)
        coverages = [
            row["coverage"] for row in result["budgets"] if not row["skipped"]
        ]
        assert coverages == sorted(coverages)

    def test_ffc_baseline_reported_when_given(self, rng):
        points, labels, costs = _pool(rng)
        result = evaluate_sweep(points, labels, costs, ffc_order=labels[:5])
        swept = [row for row in result["budgets"] if not row["skipped"]]
        assert all("ffc_coverage" in row for row in swept)
        assert result["summary"]["all_match_ffc"] in (True, False)

    def test_ffc_skipped_when_absent(self, rng):
        points, labels, costs = _pool(rng)
        result = evaluate_sweep(points, labels, costs)
        assert result["summary"]["all_match_ffc"] is False
        assert all("ffc_coverage" not in row for row in result["budgets"])

    def test_unknown_ffc_name_raises(self, rng):
        points, labels, costs = _pool(rng)
        with pytest.raises(SubsetError, match="unknown"):
            evaluate_sweep(points, labels, costs, ffc_order=("nope",))

    def test_unaffordable_fractions_marked_skipped(self, rng):
        points, labels, _ = _pool(rng)
        # One gigantic workload dwarfs the rest: 10% of the pool cost
        # cannot afford even the cheapest candidate.
        costs = tuple(
            WorkloadCost(label, 1000.0 if i == 0 else 10.0, "op-count", 1.0)
            for i, label in enumerate(labels)
        )
        result = evaluate_sweep(
            points, labels, costs, fractions=(0.005, 0.5)
        )
        assert result["budgets"][0]["skipped"]
        assert not result["budgets"][1]["skipped"]
        assert result["summary"]["n_swept"] == 1

    def test_result_is_json_safe(self, rng):
        points, labels, costs = _pool(rng)
        result = evaluate_sweep(points, labels, costs, ffc_order=labels[:4])
        assert json.loads(json.dumps(result)) == result

    def test_same_seed_same_baselines(self, rng):
        points, labels, costs = _pool(rng)
        first = evaluate_sweep(points, labels, costs, seed=3)
        second = evaluate_sweep(points, labels, costs, seed=3)
        assert first == second

    def test_more_random_trials_respected(self, rng):
        points, labels, costs = _pool(rng)
        result = evaluate_sweep(points, labels, costs, n_random=5)
        assert result["n_random"] == 5


@pytest.mark.slow
def test_gates_hold_on_a_real_timeline_suite():
    """On ten real workloads with measured costs, the budgeted selection
    beats the random mean at every budget, matches or beats Table V's
    farthest-from-centroid at equal cost, and the sweep is
    deterministic."""
    config = CollectionConfig(
        scale=0.2,
        seed=7,
        measurement=MeasurementConfig(
            slaves_measured=1, active_cores=2, ops_per_core=1200
        ),
        timeline=TimelineConfig(interval_ms=2.0),
    )
    suite = characterize_suite(SUITE[:10], config)
    costs = estimate_costs(suite.characterizations)
    assert any(cost.measured for cost in costs), "no measured costs"
    farthest = sorted(
        subset_workloads(suite.matrix, seed=0).farthest,
        key=lambda rep: (-rep.cluster_size, rep.workload),
    )
    summary = evaluate_sweep(
        fit_pca(suite.matrix.values).scores,
        suite.matrix.workloads,
        costs,
        n_random=20,
        seed=0,
        ffc_order=tuple(rep.workload for rep in farthest),
    )["summary"]
    assert summary["all_dominate_random"]
    assert summary["all_match_ffc"]
    assert summary["deterministic"]
