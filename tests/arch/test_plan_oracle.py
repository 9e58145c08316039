"""Every sample of the per-phase planner equals the per-sample oracle's.

:func:`repro.arch.batch.plan_workload` synthesises and compacts all of a
phase's samples in one set of array passes.  The oracle
(:func:`tests.arch.reference_engine.plan_workload`) synthesises each
sample on its own, drawing its op classes with ``rng.choice``, and
compacts it on its own.  These tests compare the two plans field by
field, sample by sample, and the generators' final states.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.batch import plan_workload
from repro.arch.trace import InstructionMix, PhaseProfile
from repro.errors import ConfigurationError
from tests.arch import reference_engine

MIX = InstructionMix(load=0.25, store=0.1, branch=0.18, int_alu=0.35, fp_sse=0.02)


def profile(name="p", **overrides) -> PhaseProfile:
    defaults = dict(name=name, instructions=1_000_000, mix=MIX)
    defaults.update(overrides)
    return PhaseProfile(**defaults)


def assert_plans_equal(profiles, seed, core_ids, ops_per_core, warmup_fraction=0.3):
    shipped_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    shipped = plan_workload(profiles, shipped_rng, core_ids, ops_per_core, warmup_fraction)
    oracle = reference_engine.plan_workload(
        profiles, oracle_rng, core_ids, ops_per_core, warmup_fraction
    )
    assert len(shipped) == len(oracle) == len(profiles)
    for window, (ours, theirs) in enumerate(zip(shipped, oracle)):
        assert ours.profile is theirs.profile
        assert len(ours.warmups) == len(ours.measured) == len(core_ids)
        pairs = zip(ours.warmups + ours.measured, theirs.warmups + theirs.measured)
        for index, (sample, expected) in enumerate(pairs):
            for field in expected._fields:
                assert getattr(sample, field) == getattr(expected, field), (
                    f"window {window}, sample {index}: {field} differs"
                )
    assert shipped_rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param(dict(kernel_fraction=0.0), id="kernel-0"),
        pytest.param(dict(kernel_fraction=1.0), id="kernel-1"),
        pytest.param(dict(kernel_fraction=0.3, shared_fraction=0.3), id="mixed"),
        pytest.param(dict(shared_fraction=0.0, kernel_fraction=0.2), id="shared-0"),
        pytest.param(dict(shared_fraction=1.0, shared_write_fraction=1.0), id="shared-1"),
        pytest.param(
            dict(data_streaming_fraction=1.0, hot_data_fraction=0.0), id="all-streaming"
        ),
        pytest.param(dict(code_locality=0.0, kernel_fraction=0.5), id="all-jumps"),
        pytest.param(dict(code_locality=1.0), id="no-jumps"),
    ],
)
def test_profile_edges(overrides):
    assert_plans_equal([profile(**overrides), profile("q")], 11, [0, 1, 2, 3], 600)


def test_one_active_core():
    assert_plans_equal([profile(kernel_fraction=0.2), profile("q")], 5, [0], 500)


@pytest.mark.parametrize("core_ids", [[0], [1, 3]])
def test_one_op_samples(core_ids):
    """``ops_per_core=1`` clamps every warm-up to one op: each sample is
    a single op, and its one fetch is its sample's first."""
    assert_plans_equal([profile(kernel_fraction=0.4), profile("q")], 3, core_ids, 1)


def test_phase_without_branches():
    no_branches = InstructionMix(load=0.3, store=0.2, branch=0.0, int_alu=0.4)
    assert_plans_equal([profile(mix=no_branches)], 7, [0, 1], 400)


def test_phase_without_memory_ops():
    no_memory = InstructionMix(load=0.0, store=0.0, branch=0.3, int_alu=0.5)
    assert_plans_equal([profile(mix=no_memory, kernel_fraction=0.3)], 8, [0, 1], 400)


def test_all_other_ops():
    """A mix that is all OTHER: no memory ops, no branches, only fetches."""
    idle = InstructionMix(load=0.0, store=0.0, branch=0.0, int_alu=0.0)
    assert_plans_equal([profile(mix=idle)], 9, [0, 2], 300)


def test_real_workload_profiles(suite_profiles):
    assert_plans_equal(suite_profiles, 42, [0, 1, 2, 3], 1000)


def test_non_positive_ops_rejected():
    with pytest.raises(ConfigurationError):
        plan_workload([profile()], np.random.default_rng(0), [0], 0, 0.3)


@pytest.fixture(scope="module")
def suite_profiles():
    from repro.stacks.instrument import profiles_from_trace
    from repro.workloads.base import RunContext
    from repro.workloads.suite import SUITE

    workload = SUITE[0]
    run = workload.run(RunContext(scale=0.2, seed=42))
    return profiles_from_trace(run.trace, workload.hints, num_workers=4)


fractions = st.floats(min_value=0.0, max_value=1.0)
skews = st.floats(min_value=1.0, max_value=6.0)


@st.composite
def profiles(draw):
    parts = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(6)]
    total = sum(parts) or 1.0
    scale = draw(st.floats(min_value=0.0, max_value=1.0))
    mix = InstructionMix(*(scale * part / total for part in parts))
    return PhaseProfile(
        name="h",
        instructions=1_000_000,
        mix=mix,
        # Ring-0 bursts draw exponential run lengths with mean
        # 400 * (1 - f) / f, finite only for a kernel fraction well above 0.
        kernel_fraction=draw(
            st.sampled_from([0.0, 1.0]) | st.floats(min_value=1e-3, max_value=1.0)
        ),
        code_footprint=draw(st.integers(min_value=1, max_value=4 << 20)),
        code_locality=draw(fractions),
        code_reuse_skew=draw(skews),
        data_working_set=draw(st.integers(min_value=1, max_value=64 << 20)),
        hot_data_fraction=draw(fractions),
        data_streaming_fraction=draw(fractions),
        data_reuse_skew=draw(skews),
        data_tail_fraction=draw(fractions),
        shared_fraction=draw(st.just(0.0) | fractions),
        shared_working_set=draw(st.integers(min_value=1, max_value=64 << 20)),
        shared_reuse_skew=draw(skews),
        shared_tail_fraction=draw(fractions),
        shared_write_fraction=draw(fractions),
        branch_entropy=draw(fractions),
    )


@settings(max_examples=40, deadline=None)
@given(
    phases=st.lists(profiles(), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cores=st.integers(min_value=1, max_value=4),
    ops=st.integers(min_value=1, max_value=700),
    warmup_fraction=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_property_plans_match_oracle(phases, seed, cores, ops, warmup_fraction):
    assert_plans_equal(phases, seed, list(range(cores)), ops, warmup_fraction)
