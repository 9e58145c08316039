"""Tests for phase profiles and synthetic op-stream generation.

The synthesis properties are checked on the per-sample oracle
(``tests/arch/reference_engine.py``), whose samples
``test_plan_oracle.py`` pins field for field to the shipping planner's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.trace import (
    HOT_REGION_BYTES,
    KERNEL_CODE_BASE,
    OP_BRANCH,
    OP_CODE_MASK,
    OP_LOAD,
    OP_STORE,
    SHARED_DATA_BASE,
    USER_CODE_BASE,
    InstructionMix,
    PhaseProfile,
)
from repro.errors import ConfigurationError
from tests.arch.reference_engine import StreamColumns, synthesize_columns


MIX = InstructionMix(load=0.25, store=0.1, branch=0.18, int_alu=0.35, fp_sse=0.02)


def profile(**overrides) -> PhaseProfile:
    defaults = dict(name="test", instructions=1_000_000, mix=MIX)
    defaults.update(overrides)
    return PhaseProfile(**defaults)


class TestInstructionMix:
    def test_other_fills_remainder(self):
        assert MIX.other == pytest.approx(1 - 0.25 - 0.1 - 0.18 - 0.35 - 0.02)

    def test_probabilities_sum_to_one(self):
        total = sum(p for _kind, p in MIX.as_probabilities())
        assert total == pytest.approx(1.0)

    def test_negative_fraction_raises(self):
        with pytest.raises(ConfigurationError):
            InstructionMix(load=-0.1, store=0.1, branch=0.1, int_alu=0.1)

    def test_oversum_raises(self):
        with pytest.raises(ConfigurationError):
            InstructionMix(load=0.5, store=0.5, branch=0.5, int_alu=0.5)


class TestPhaseProfileValidation:
    def test_zero_instructions_raises(self):
        with pytest.raises(ConfigurationError):
            profile(instructions=0)

    @pytest.mark.parametrize(
        "field",
        [
            "kernel_fraction",
            "code_locality",
            "hot_data_fraction",
            "data_streaming_fraction",
            "data_tail_fraction",
            "shared_fraction",
            "shared_tail_fraction",
            "shared_write_fraction",
            "branch_entropy",
        ],
    )
    def test_fraction_fields_validated(self, field):
        with pytest.raises(ConfigurationError):
            profile(**{field: 1.5})

    def test_skews_must_be_at_least_one(self):
        with pytest.raises(ConfigurationError):
            profile(data_reuse_skew=0.5)

    def test_uops_below_one_raises(self):
        with pytest.raises(ConfigurationError):
            profile(uops_per_instruction=0.9)


def synthesize(p, n_ops, core_id, seed):
    """Synthesise a sample; returns (columns, bare op codes)."""
    cols = synthesize_columns(p, n_ops, core_id, np.random.default_rng(seed))
    return cols, cols.codes & OP_CODE_MASK


class TestSynthesis:
    def test_deterministic_given_seed(self):
        p = profile(kernel_fraction=0.2, shared_fraction=0.2)
        a, _ = synthesize(p, 2000, 0, 5)
        b, _ = synthesize(p, 2000, 0, 5)
        for field in StreamColumns._fields:
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_mix_fractions_are_respected(self):
        _, codes = synthesize(profile(), 20_000, 0, 1)
        assert np.mean(codes == OP_LOAD) == pytest.approx(0.25, abs=0.03)
        assert np.mean(codes == OP_BRANCH) == pytest.approx(0.18, abs=0.03)

    def test_kernel_fraction_is_respected_and_bursty(self):
        p = profile(kernel_fraction=0.3)
        cols, _ = synthesize(p, 30_000, 0, 2)
        kernel = cols.kernels
        assert kernel.mean() == pytest.approx(0.3, abs=0.1)
        # Bursty: far fewer mode switches than a Bernoulli process would
        # produce (expected ~2*p*(1-p)*n = 12600 switches; bursts -> few).
        switches = np.count_nonzero(kernel[1:] != kernel[:-1])
        assert switches < 2000

    def test_shared_fraction_targets_shared_region(self):
        p = profile(shared_fraction=0.5, shared_working_set=1 << 20)
        cols, codes = synthesize(p, 20_000, 0, 3)
        data = codes <= OP_STORE
        shared = data & cols.shareds
        assert shared.sum() / data.sum() == pytest.approx(0.5, abs=0.05)
        assert np.all(cols.addresses[shared] >= SHARED_DATA_BASE)

    def test_zero_shared_fraction_never_shares(self):
        cols, _ = synthesize(profile(shared_fraction=0.0), 5_000, 0, 4)
        assert not cols.shareds.any()

    def test_kernel_ops_fetch_from_kernel_segment(self):
        p = profile(kernel_fraction=1.0)
        cols, _ = synthesize(p, 1_000, 0, 5)
        assert np.all(cols.pcs >= KERNEL_CODE_BASE)

    def test_cores_have_disjoint_private_heaps(self):
        p = profile(shared_fraction=0.0)
        cols0, codes0 = synthesize(p, 5_000, 0, 6)
        cols1, codes1 = synthesize(p, 5_000, 1, 6)
        addresses0 = set(cols0.addresses[codes0 == OP_LOAD].tolist())
        addresses1 = set(cols1.addresses[codes1 == OP_LOAD].tolist())
        assert addresses0.isdisjoint(addresses1)

    def test_branch_outcomes_biased_at_low_entropy(self):
        p = profile(branch_entropy=0.0)
        cols, codes = synthesize(p, 20_000, 0, 7)
        branch = codes == OP_BRANCH
        by_site: dict[int, set[bool]] = {}
        for site, taken in zip(
            cols.addresses[branch].tolist(), cols.takens[branch].tolist()
        ):
            by_site.setdefault(site, set()).add(taken)
        # Entropy 0 means each site is fully biased: one outcome per site.
        assert all(len(outcomes) == 1 for outcomes in by_site.values())

    def test_n_ops_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            synthesize(profile(), 0, 0, 0)


@settings(max_examples=20, deadline=None)
@given(
    n_ops=st.integers(min_value=1, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_synthesis_always_produces_requested_length(n_ops, seed):
    cols, _ = synthesize(profile(), n_ops, 0, seed)
    for field in StreamColumns._fields[:-1]:  # every column but tallies
        assert len(getattr(cols, field)) == n_ops, field
    assert np.all(cols.addresses >= 0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_synthesis_address_invariants(seed):
    """Data addresses are 8-byte aligned; branch PCs sit in the user code
    region; only LOAD/STORE ops carry the shared flag."""
    p = profile(kernel_fraction=0.3, shared_fraction=0.3)
    cols, codes = synthesize(p, 1500, 0, seed)
    data = codes <= OP_STORE
    assert np.all(cols.addresses[data] % 8 == 0)
    assert np.all(cols.addresses[codes == OP_BRANCH] >= USER_CODE_BASE)
    assert not cols.shareds[~data].any()
