"""Golden digests of the simulation engine's output.

Pins the exact bits the shipping engine produces: the sha256 of
``Processor.run_workload``'s raw-event totals together with the final
RNG state, for three workloads × three seeds, and of one small
``characterize_suite`` matrix.  Any change to synthesis, the simulation
kernel, cycle accounting or metric derivation that moves a single bit
fails here, whatever the reason.  An intended change of results updates
the constants in the same commit and says why.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.arch.batch import plan_workload
from repro.arch.processor import Processor
from repro.cluster import CollectionConfig, MeasurementConfig, characterize_suite
from repro.service.store import CACHE_DIR_ENV
from repro.stacks.instrument import profiles_from_trace
from repro.workloads.base import RunContext
from repro.workloads.suite import SUITE

_BY_NAME = {workload.name: workload for workload in SUITE}

#: sha256 of (events, final rng state) per (workload, seed).
RUN_WORKLOAD_DIGESTS = {
    ("H-Sort", 0):
        "0c0772abd99a02208fe2341d06b75363ca343caa294586391246c4bf3793adf1",
    ("H-Sort", 1):
        "a9db33ac4c0e221ae29b4ed537213194e550603a093aa9aafc5d2477f17c5c42",
    ("H-Sort", 7):
        "e9048393126ab2d4c6f78f10ee1062834284e5178a86a8d09068925200bd2fa2",
    ("S-Kmeans", 0):
        "162ad0206d194fe654058827325d42d0a05e26529338c083b46ded297febcc30",
    ("S-Kmeans", 1):
        "4a6ce27a3e6732e567b579032db2fd20c53db4863f0ad6a195f25ebfc02a501d",
    ("S-Kmeans", 7):
        "9e442e5bf13cd2c59550bc8495ac488253b1b5f6983d6f0c2716bffb82fda11c",
    ("H-JoinQuery", 0):
        "90612e06474931b2cca67f844b7135f455043096e8c603795382f62a0bafa906",
    ("H-JoinQuery", 1):
        "7fedf287474948e11b28247d2db695261111f9a7385dec16f5d8f403808ade65",
    ("H-JoinQuery", 7):
        "c543088f0dc34e42fa8bfd43c83fae419c21ce2850accd05923a6deef83a8903",
}

#: sha256 of the little-endian float64 matrix plus its row labels.
SUITE_MATRIX_DIGEST = (
    "a7b290c8ef2298da031433383a96a94ca699a3ec147f4e5c683b4694de0bd7bb"
)

_SUITE_CONFIG = CollectionConfig(
    scale=0.1,
    seed=42,
    measurement=MeasurementConfig(
        slaves_measured=1, active_cores=2, ops_per_core=500, perf_repeats=1
    ),
)


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def run_workload_digest(events: dict[str, float], rng_state: dict) -> str:
    """Digest of a run's event totals and the generator state it left."""
    doc = {"events": events, "rng": rng_state}
    return _sha256(json.dumps(doc, sort_keys=True).encode())


@pytest.fixture(scope="module")
def workload_profiles():
    profiles = {}
    for name in sorted({name for name, _ in RUN_WORKLOAD_DIGESTS}):
        workload = _BY_NAME[name]
        run = workload.run(RunContext(scale=0.1, seed=42))
        profiles[name] = profiles_from_trace(
            run.trace, workload.hints, num_workers=4
        )
    return profiles


@pytest.mark.parametrize("name,seed", sorted(RUN_WORKLOAD_DIGESTS))
def test_run_workload_digest(workload_profiles, name, seed):
    rng = np.random.default_rng(seed)
    profiles = workload_profiles[name]
    plan = plan_workload(profiles, rng, [0, 1], 800, 0.3)
    events = Processor().run_workload(profiles, plan)
    digest = run_workload_digest(events, rng.bit_generator.state)
    assert digest == RUN_WORKLOAD_DIGESTS[(name, seed)]


def test_suite_matrix_digest(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    suite = characterize_suite(
        (_BY_NAME["S-Sort"], _BY_NAME["H-Grep"]), _SUITE_CONFIG
    )
    matrix = suite.matrix
    payload = json.dumps(list(matrix.workloads)).encode()
    payload += matrix.values.astype("<f8").tobytes()
    assert _sha256(payload) == SUITE_MATRIX_DIGEST
