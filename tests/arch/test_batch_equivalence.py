"""Bit-identity of the batched window engine vs the per-op oracle.

The shipping engine (:mod:`repro.arch.batch` feeding
``CoreModel.run_compact``) must be indistinguishable from the per-op
reference loop in :mod:`tests.arch.reference_engine`, which draws each
window as it runs: identical raw-event totals *and* an identical final
RNG state, for any seed, any window count, under fault plans and with
timeline sampling on.  These tests pin that invariant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.batch import plan_workload
from repro.arch.processor import Processor
from repro.cluster.testbed import Cluster, MeasurementConfig
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.obs.timeline import TimelineConfig
from repro.stacks.instrument import profiles_from_trace
from repro.workloads.base import RunContext
from repro.workloads.suite import SUITE
from tests.arch import reference_engine


@pytest.fixture(scope="module")
def profiles():
    """Phase profiles of a real workload run (all phase kinds present)."""
    workload = SUITE[0]
    run = workload.run(RunContext(scale=0.3, seed=42))
    return profiles_from_trace(run.trace, workload.hints, num_workers=4)


def run_engine(profiles, engine, seed, *, active_cores=2, ops_per_core=1500):
    """One fresh-processor run of ``"batched"`` (the shipping engine, over
    a plan drawn up front) or ``"windowed"`` (the per-op oracle, drawing
    each window as it runs); returns (events, final rng state)."""
    processor = Processor()
    rng = np.random.default_rng(seed)
    if engine == "batched":
        plan = plan_workload(
            profiles,
            rng,
            [core.core_id for core in processor.cores[:active_cores]],
            ops_per_core,
            0.3,
        )
        events = processor.run_workload(profiles, plan)
    else:
        events = reference_engine.run_workload(
            processor, profiles, rng,
            active_cores=active_cores, ops_per_core=ops_per_core,
        )
    return events, rng.bit_generator.state


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 1234, 2**31])
    def test_bit_identical_across_seeds(self, profiles, seed):
        """Same events, same RNG state — per seed, not just on average."""
        windowed, w_state = run_engine(profiles, "windowed", seed)
        batched, b_state = run_engine(profiles, "batched", seed)
        assert batched == windowed
        assert b_state == w_state

    def test_single_window(self, profiles):
        """The 1-window edge: no cross-phase state to hide behind."""
        windowed, w_state = run_engine(profiles[:1], "windowed", 99)
        batched, b_state = run_engine(profiles[:1], "batched", 99)
        assert batched == windowed
        assert b_state == w_state

    def test_zero_windows_rejected_by_both_engines(self):
        """The 0-window edge is a loud error on both paths, not a skew."""
        for engine in ("windowed", "batched"):
            with pytest.raises(ConfigurationError):
                run_engine([], engine, 0)

    def test_externally_built_plan_is_equivalent(self, profiles):
        """Plans for several slaves, all drawn before any of them runs (as
        the testbed hoists them), each equal the reference for their own
        seed — the contract cross-slave batching rests on."""
        core_ids = [core.core_id for core in Processor().cores[:2]]
        rngs = {seed: np.random.default_rng(seed) for seed in (7, 8)}
        plans = {
            seed: plan_workload(profiles, rng, core_ids, 1500, 0.3)
            for seed, rng in rngs.items()
        }
        for seed, plan in plans.items():
            windowed, w_state = run_engine(profiles, "windowed", seed)
            assert Processor().run_workload(profiles, plan) == windowed
            assert rngs[seed].bit_generator.state == w_state

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        ops=st.integers(min_value=1, max_value=900),
        cores=st.integers(min_value=1, max_value=3),
    )
    def test_property_equivalence(self, profiles, seed, ops, cores):
        """Property form: arbitrary seed × sample size × core count.

        ``ops=1`` exercises the tiny-sample edge (warm-up clamps to one
        op; a single event per sample)."""
        windowed, w_state = run_engine(
            profiles[:2], "windowed", seed,
            active_cores=cores, ops_per_core=ops,
        )
        batched, b_state = run_engine(
            profiles[:2], "batched", seed,
            active_cores=cores, ops_per_core=ops,
        )
        assert batched == windowed
        assert b_state == w_state


class TestEquivalenceUnderObservation:
    """Fault plans and timeline sampling ride on the collection path —
    the batched engine must stay bit-identical with both active."""

    def _characterize(self, engine_forcer=None, monkeypatch=None):
        workload = SUITE[0]
        context = RunContext(scale=0.3, seed=42)
        measurement = MeasurementConfig(
            slaves_measured=2, active_cores=2, ops_per_core=1500
        )
        faults = FaultPlan(seed=5, crash=0.15, straggler=0.1, hdfs_read=0.1)
        timeline = TimelineConfig(interval_ms=0.0)
        if engine_forcer is not None:
            monkeypatch.setattr(Processor, "run_workload", engine_forcer)
        return Cluster().characterize_workload(
            workload, context, measurement, faults=faults, timeline=timeline
        )

    def test_batched_collection_matches_windowed(self, monkeypatch):
        batched = self._characterize()

        def plan_nothing(profiles, rng, core_ids, ops_per_core, warmup_fraction):
            return rng, len(core_ids), ops_per_core, warmup_fraction

        def force_windowed(self, profiles, plan):
            rng, active_cores, ops_per_core, warmup_fraction = plan
            return reference_engine.run_workload(
                self, profiles, rng,
                active_cores=active_cores,
                ops_per_core=ops_per_core,
                warmup_fraction=warmup_fraction,
            )

        with monkeypatch.context() as patch:
            # The testbed pre-draws each slave's synthesis into a plan;
            # the per-op oracle must receive the rng *unconsumed* and
            # draw per window itself, so the stubbed planner hands it the
            # slave's rng and settings instead of a plan.
            import repro.cluster.testbed as testbed_mod

            patch.setattr(testbed_mod, "plan_workload", plan_nothing)
            windowed = self._characterize(force_windowed, patch)

        # Metrics, per-slave detail and fault accounting all agree; the
        # timeline reconciliation invariant already ran inside both
        # characterize_workload calls.
        assert batched.metrics == windowed.metrics
        assert batched.per_slave == windowed.per_slave
        assert batched.faults == windowed.faults
        assert batched.timeline is not None
        assert windowed.timeline is not None
