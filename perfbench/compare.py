"""Compare two sets of benchmark results, one row per workload and metric.

Each set is a ledger written by ``run.py`` (one JSON line per run).  For
every workload and mode (end-to-end or traced) present in both, the
table gives each set's median with its first and third quartiles and the
change of the median.  Then it says whether runs of the same seed gave the
same outputs (matrix digest, Kaiser PCs, retained variance, BIC K) and,
for traced runs, names the layer whose self time grew most.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from layers import PIPELINE_LAYERS

#: Layer times compared when naming the layer that grew: the pipeline's
#: self times (the per-engine groupings overlap them) and the replay's.
SELF_TIME_LAYERS = PIPELINE_LAYERS + (
    "cluster.pool.collect_s",
    "service.store.write_s",
    "service.store.hydrate_s",
)


def group_runs(records: list[dict]) -> dict[str, list[dict]]:
    """Headlines of passing ``perfbench`` records, with their seed, keyed
    by ``workload/mode``."""
    groups: dict[str, list[dict]] = defaultdict(list)
    for record in records:
        bench = record.get("bench", "")
        if bench.startswith("perfbench/") and record.get("status") == "pass":
            groups[bench.split("/", 1)[1]].append(
                dict(record["headline"], seed=record["env"].get("seed"))
            )
    return groups


def differing_outputs(base: list[dict], new: list[dict]) -> list[str] | None:
    """Output fields that differ between runs of the same seed, or
    ``None`` when the two sets share no seed."""
    by_seed = {run["seed"]: run for run in base}
    shared = [run for run in new if run["seed"] in by_seed]
    if not shared:
        return None
    return sorted({
        key
        for run in shared
        for key, value in run.items()
        if key.startswith("output.") and by_seed[run["seed"]].get(key) != value
    })


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def grown_layer(base: list[dict], new: list[dict]) -> tuple[str, float]:
    """The self-time layer whose median grew most, and by how many seconds."""
    growth = {
        name: statistics.median(run[name] for run in new)
        - statistics.median(run[name] for run in base)
        for name in SELF_TIME_LAYERS
        if all(name in run for run in base + new)
    }
    name = max(growth, key=growth.get)
    return name, growth[name]


def compare(base_path: str, new_path: str) -> int:
    from repro.obs.ledger import load_history

    base = group_runs(load_history(base_path))
    new = group_runs(load_history(new_path))
    shared = sorted(base.keys() & new.keys())
    if not shared:
        print("no workload has passing runs in both sets")
        return 1
    for key in shared:
        print(f"== {key}: {len(base[key])} base runs, {len(new[key])} new runs")
        print(f"  {'metric':28s} {'base median [q1, q3]':>32s} "
              f"{'new median [q1, q3]':>32s} {'delta':>9s}")
        metrics = [
            name for name, value in base[key][0].items()
            if isinstance(value, (int, float))
            and name != "seed" and not name.startswith("output.")
            and all(name in run for run in base[key] + new[key])
        ]
        for name in metrics:
            b1, b2, b3 = quartiles([run[name] for run in base[key]])
            n1, n2, n3 = quartiles([run[name] for run in new[key]])
            delta = f"{100.0 * (n2 / b2 - 1.0):+8.2f}%" if b2 else "      n/a"
            print(f"  {name:28s} {b2:12.5g} [{b1:.5g}, {b3:.5g}]".ljust(63)
                  + f" {n2:12.5g} [{n1:.5g}, {n3:.5g}]".ljust(33) + delta)
        differ = differing_outputs(base[key], new[key])
        if differ is None:
            print("  outputs: the sets share no seed")
        else:
            print(f"  outputs on shared seeds: {', '.join(differ) or 'identical'}")
        if key.endswith("/trace"):
            name, seconds = grown_layer(base[key], new[key])
            print(f"  layer that grew most: {name} ({seconds:+.4f} s)")
    return 0
