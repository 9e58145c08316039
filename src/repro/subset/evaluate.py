"""Validation harness: does budgeted selection actually earn its keep?

For a sweep of budgets (fractions of the whole pool's cost), the harness
compares the budgeted selection's PC-space coverage against two
baselines at the *same* budget:

- **Random** — the mean and max over ``n_random`` random "affordable
  fills": shuffle the pool, admit workloads in shuffled order while they
  fit.  This is what you get from picking workloads arbitrarily until
  the simulation window is full.
- **Farthest-from-centroid (FFC)** — the paper's recommended subset, in
  its largest-cluster-first order, truncated to the affordable prefix.
  This is the strongest cost-oblivious baseline the repo already ships.

The harness also re-runs the selection from scratch and checks the two
subsets are bit-identical — the determinism half of the CI gate.

Everything returned is JSON-safe; the slow test
``tests/subset/test_evaluate.py::test_gates_hold_on_a_real_timeline_suite``
asserts the gates on a real suite.
"""

from __future__ import annotations

import random

import numpy as np

from repro.errors import SubsetError
from repro.subset.cost import WorkloadCost
from repro.subset.select import (
    coverage_of,
    greedy_ranking,
    select_budgeted,
    similarity_matrix,
)

__all__ = ["DEFAULT_FRACTIONS", "evaluate_sweep"]

#: The ISSUE's budget sweep: 10 % to 80 % of total pool cost.
DEFAULT_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)

#: Coverage slack for the match-or-beat FFC gate (float accumulation
#: noise only; a real loss to FFC is orders of magnitude larger).
_MATCH_EPS = 1e-9


def _affordable_fill(
    order: list[int], seconds: np.ndarray, budget_s: float
) -> list[int]:
    """Admit pool indices in ``order`` while they still fit the budget."""
    chosen: list[int] = []
    spent = 0.0
    for j in order:
        if spent + seconds[j] <= budget_s:
            chosen.append(j)
            spent += seconds[j]
    return chosen


def _random_baseline(
    rng: random.Random,
    n: int,
    seconds: np.ndarray,
    sim: np.ndarray,
    budget_s: float,
    n_random: int,
) -> tuple[float, float]:
    """(mean, max) coverage of ``n_random`` random affordable fills."""
    coverages = []
    for _ in range(n_random):
        order = rng.sample(range(n), n)
        coverages.append(coverage_of(sim, _affordable_fill(order, seconds, budget_s)))
    return float(np.mean(coverages)), float(max(coverages))


def evaluate_sweep(
    points: np.ndarray,
    labels: tuple[str, ...],
    costs: tuple[WorkloadCost, ...],
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    n_random: int = 20,
    seed: int = 0,
    ffc_order: tuple[str, ...] = (),
) -> dict:
    """Sweep budgets and score the budgeted selector against baselines.

    Args:
        points: ``(n, k)`` PC-space coordinates.
        labels: Workload labels matching the rows.
        costs: One cost per label.
        fractions: Budget sweep, as fractions of total pool cost.
        n_random: Random affordable fills per budget.
        seed: Seed for the random baseline.
        ffc_order: The paper's farthest-from-centroid subset in its
            largest-cluster-first order; the FFC baseline is skipped
            when empty.

    Returns:
        A JSON-safe dict: per-budget rows under ``"budgets"`` and gate
        booleans under ``"summary"``.
    """
    points = np.asarray(points, dtype=float)
    ranking = greedy_ranking(points, labels, costs)
    ranking_again = greedy_ranking(points, labels, costs)
    deterministic = ranking == ranking_again

    by_label = {label: i for i, label in enumerate(labels)}
    unknown = [name for name in ffc_order if name not in by_label]
    if unknown:
        raise SubsetError(f"FFC order names unknown workloads: {unknown}")
    ffc_indices = [by_label[name] for name in ffc_order]

    cost_by_name = {cost.workload: cost.seconds for cost in costs}
    seconds = np.array([cost_by_name[label] for label in labels])
    sim = similarity_matrix(points)
    total_cost = float(ranking[-1].cumulative_cost_s)
    cheapest = float(min(entry.cost_s for entry in ranking))
    rng = random.Random(seed)

    rows = []
    all_dominate = True
    all_match_ffc = True
    for fraction in fractions:
        budget_s = fraction * total_cost
        if budget_s < cheapest:
            # An unaffordable sweep point gates nothing; record it so
            # the bench output shows the sweep was not silently wider
            # than what actually ran.
            rows.append(
                {"fraction": fraction, "budget_s": budget_s, "skipped": True}
            )
            continue
        selection = select_budgeted(points, labels, costs, budget_s, ranking=ranking)
        rerun = select_budgeted(points, labels, costs, budget_s)
        deterministic = deterministic and rerun.workloads == selection.workloads

        random_mean, random_max = _random_baseline(
            rng, len(labels), seconds, sim, budget_s, n_random
        )
        dominates = selection.coverage > random_mean
        all_dominate = all_dominate and dominates

        row = {
            "fraction": fraction,
            "budget_s": budget_s,
            "skipped": False,
            "selected": list(selection.workloads),
            "n_selected": len(selection.picks),
            "coverage": selection.coverage,
            "cost_s": selection.cost_s,
            "random_mean": random_mean,
            "random_max": random_max,
            "dominates_random": dominates,
        }
        if ffc_indices:
            ffc_prefix = _affordable_fill(ffc_indices, seconds, budget_s)
            ffc_coverage = coverage_of(sim, ffc_prefix)
            matches = selection.coverage + _MATCH_EPS >= ffc_coverage
            all_match_ffc = all_match_ffc and matches
            row.update(
                {
                    "ffc_selected": [labels[j] for j in ffc_prefix],
                    "ffc_coverage": ffc_coverage,
                    "matches_ffc": matches,
                }
            )
        rows.append(row)

    swept = [row for row in rows if not row["skipped"]]
    return {
        "n_pool": len(labels),
        "total_pool_cost_s": total_cost,
        "n_random": n_random,
        "seed": seed,
        "ffc_order": list(ffc_order),
        "budgets": rows,
        "summary": {
            "n_swept": len(swept),
            "all_dominate_random": all_dominate and bool(swept),
            "all_match_ffc": all_match_ffc and bool(ffc_order),
            "deterministic": bool(deterministic),
            "mean_coverage_lift": (
                float(
                    np.mean(
                        [row["coverage"] - row["random_mean"] for row in swept]
                    )
                )
                if swept
                else 0.0
            ),
        },
    }
