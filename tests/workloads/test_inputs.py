"""Workload inputs are built once per process and shared safely.

Each algorithm's input is a pure function of ``(seed, count)``, so the
Hadoop and Spark (or Hive and Shark) runs of one algorithm share one
memoised copy.  These tests pin what makes that safe: callers get
containers they cannot corrupt for the next caller, the memoised input
equals a fresh build, nothing is built at import time, and repeated
collections in one process stay bit-identical.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.cluster import collection
from repro.cluster.collection import CollectionConfig, characterize_suite
from repro.cluster.testbed import MeasurementConfig
from repro.workloads import micro, ml, sql_workloads
from repro.workloads.base import RunContext
from repro.workloads.sql_workloads import _cross_tables, build_tables
from repro.workloads.suite import SUITE

BUILDERS = (
    micro._sort_records,
    micro._text_lines,
    ml._bayes_documents,
    ml._kmeans_points,
    ml._pagerank_links,
    sql_workloads._warehouse_rows,
    sql_workloads._cross_rows,
)


@pytest.mark.parametrize("table_builder", [build_tables, _cross_tables])
def test_mutated_tables_reach_the_next_caller_unchanged(table_builder):
    context = RunContext(scale=0.1, seed=5)
    first = table_builder(context)
    expected = {name: list(relation.rows) for name, relation in first.items()}
    for relation in first.values():
        relation.rows.reverse()
        relation.rows.append(relation.rows[0])
        del relation.rows[:2]
    second = table_builder(context)
    assert second is not first
    assert {name: relation.rows for name, relation in second.items()} == expected
    for name in expected:
        assert second[name].rows is not first[name].rows


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
def test_memoised_input_equals_a_fresh_build(builder):
    args = (17, 40, 80) if builder is sql_workloads._warehouse_rows else (17, 40)
    shared = builder(*args)
    assert builder(*args) is shared
    fresh = builder.__wrapped__(*args)
    assert fresh == shared
    assert fresh is not shared


def _immutable(value) -> bool:
    if isinstance(value, tuple):
        return all(_immutable(item) for item in value)
    if hasattr(value, "__dataclass_params__"):
        return value.__dataclass_params__.frozen and all(
            _immutable(getattr(value, name)) for name in value.__dataclass_fields__
        )
    return isinstance(value, (str, bytes, int, float, type(None)))


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
def test_shared_inputs_are_immutable(builder):
    args = (3, 30, 60) if builder is sql_workloads._warehouse_rows else (3, 30)
    assert _immutable(builder(*args))


def test_nothing_is_built_at_import_time():
    code = (
        "import repro.workloads.suite\n"
        "from repro.workloads import micro, ml, sql_workloads\n"
        "builders = [micro._sort_records, micro._text_lines, ml._bayes_documents,\n"
        "            ml._kmeans_points, ml._pagerank_links,\n"
        "            sql_workloads._warehouse_rows, sql_workloads._cross_rows]\n"
        "print(sum(b.cache_info().currsize for b in builders))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"


def test_collecting_twice_in_one_process_is_identical(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setattr(collection, "_MEMO", {})
    config = CollectionConfig(
        scale=0.05,
        seed=23,
        measurement=MeasurementConfig(
            slaves_measured=1, active_cores=2, ops_per_core=200
        ),
    )
    runs = collection.collection_runs()
    first = characterize_suite(SUITE, config=config, workers=1)
    collection._MEMO.clear()
    second = characterize_suite(SUITE, config=config, workers=1)
    assert collection.collection_runs() == runs + 2
    assert first.matrix.workloads == second.matrix.workloads
    assert np.array_equal(first.matrix.values, second.matrix.values)
    for a, b in zip(first.characterizations, second.characterizations):
        assert [r.bytes_in for r in a.run.trace.records] == [
            r.bytes_in for r in b.run.trace.records
        ]
