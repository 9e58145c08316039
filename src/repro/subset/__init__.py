"""Budget-aware adaptive subsetting engine.

The paper's subsetting pipeline (:mod:`repro.core.subsetting`) answers
"which K workloads represent the suite?".  This package answers the
operational follow-up: **"which workloads should I actually run when I
can only afford ``budget`` seconds of simulation?"** — the WAter-style
workload-compression question.

Layers, bottom up:

- :mod:`repro.subset.cost` — per-workload simulated-runtime costs from
  stored characterizations (timeline telemetry when present, calibrated
  op-count fallback otherwise), persisted through the ResultStore.
- :mod:`repro.subset.select` — greedy submodular (facility-location)
  selection per unit cost with CELF lazy evaluation, deterministic
  tie-breaking and nested budget prefixes.
- :mod:`repro.subset.adaptive` — re-selection as characterizations
  land, with measured-cost history reuse and incremental PCA scoring.
- :mod:`repro.subset.evaluate` — the budget-sweep harness behind the
  CI gate (``tests/subset/test_evaluate.py``).
"""

from repro.subset.adaptive import AdaptiveSelection, AdaptiveSubsetter
from repro.subset.cost import (
    WorkloadCost,
    cost_store_key,
    estimate_cost,
    estimate_costs,
    load_costs,
    persist_costs,
)
from repro.subset.evaluate import DEFAULT_FRACTIONS, evaluate_sweep
from repro.subset.select import (
    BudgetedSelection,
    RankedCandidate,
    coverage_of,
    greedy_ranking,
    select_budgeted,
    similarity_matrix,
)

__all__ = [
    "AdaptiveSelection",
    "AdaptiveSubsetter",
    "WorkloadCost",
    "cost_store_key",
    "estimate_cost",
    "estimate_costs",
    "load_costs",
    "persist_costs",
    "DEFAULT_FRACTIONS",
    "evaluate_sweep",
    "BudgetedSelection",
    "RankedCandidate",
    "coverage_of",
    "greedy_ranking",
    "select_budgeted",
    "similarity_matrix",
]
