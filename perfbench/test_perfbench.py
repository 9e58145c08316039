"""Tests of the benchmark's own accounting.

Run from the repository root with ``python3 -m pytest perfbench``.  They
use eight workloads at a tiny scale, so each cold pipeline takes a few
seconds.
"""

from __future__ import annotations

import contextlib
import functools
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from compare import compare  # noqa: E402
from layers import LayerClock, compute_layers, install  # noqa: E402
from pipeline import (  # noqa: E402
    NoClock,
    cold_pipeline,
    collection_config,
    layer_metrics,
)

#: Both stack families, and enough rows for the BIC sweep and fixed K.
WORKLOADS = (
    "H-Sort", "S-Sort", "H-Grep", "S-Grep",
    "H-Projection", "S-Projection", "H-Filter", "S-Filter",
)
CONFIG = {"scale": 0.05, "slaves": 1, "cores": 1, "ops": 200, "seed": 3}


def _cold(clock) -> dict:
    from repro.cluster import collection
    from repro.workloads.suite import workload_by_name

    collection._MEMO.clear()  # each run must collect, not hit the memo
    return cold_pipeline(
        collection_config(CONFIG), clock,
        tuple(workload_by_name(name) for name in WORKLOADS),
    )


@contextlib.contextmanager
def _delayed(owner, attr: str, seconds: float):
    """Make ``owner.attr`` sleep ``seconds`` before each call."""
    original = vars(owner)[attr]

    @functools.wraps(original)
    def slow(*args, **kwargs):
        time.sleep(seconds)
        return original(*args, **kwargs)

    setattr(owner, attr, slow)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _traced(delay=None) -> tuple[dict, dict]:
    clock = LayerClock()
    with _delayed(*delay) if delay else contextlib.nullcontext():
        # Installed inside the delay, so the layer's span covers it.
        with install(clock, compute_layers):
            result = _cold(clock)
    return result, layer_metrics(clock, result["pipeline_wall_s"])


def test_traced_run_matches_untraced_and_covers_its_wall_time():
    untraced = _cold(NoClock())
    traced, layers = _traced()
    assert traced["matrix_sha256"] == untraced["matrix_sha256"]
    assert traced["failed_workloads"] == []
    # Budgets travel as JSON and come back as query strings and keys.
    assert all(type(budget) is float for budget in untraced["budgets"])
    assert list(untraced["selections"]) == list(map(repr, untraced["budgets"]))
    assert abs(layers["coverage_pct"] - 100.0) <= 5.0
    assert layers["layers"]["arch.sim_ops"] > 0
    assert layers["layers"]["stacks.phases"] > 0


def _testbed():
    import repro.cluster.testbed as testbed

    return testbed


@pytest.mark.parametrize(
    ("attr", "layer"),
    [("derive_metrics", "metrics.derive_s"), ("plan_workload", "arch.plan_s")],
)
def test_injected_delay_is_named_by_the_comparison(tmp_path, capsys, attr, layer):
    from repro.obs.ledger import append_record

    base, base_layers = _traced()
    slow, slow_layers = _traced((_testbed(), attr, 0.1))
    assert slow["matrix_sha256"] == base["matrix_sha256"]
    assert slow_layers["layers"]["arch.sim_ops"] == base_layers["layers"]["arch.sim_ops"]
    for name, layers in (("base", base_layers), ("new", slow_layers)):
        append_record(tmp_path / f"{name}.jsonl", bench="perfbench/test/trace",
                      headline=layers["layers"])
    capsys.readouterr()
    assert compare(str(tmp_path / "base.jsonl"), str(tmp_path / "new.jsonl")) == 0
    assert f"layer that grew most: {layer} " in capsys.readouterr().out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "*.jsonl"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
