"""Tests for the processor-level driver."""

import numpy as np
import pytest

from repro.arch.cache import SetAssociativeCache
from repro.arch.processor import Processor, ProcessorConfig, events_from_sample
from repro.arch.pipeline import CycleModel, SampleCounts
from repro.arch.trace import InstructionMix, PhaseProfile
from repro.errors import ConfigurationError
from repro.metrics.derivation import REQUIRED_EVENTS
from tests.arch import reference_engine

MIX = InstructionMix(load=0.3, store=0.1, branch=0.15, int_alu=0.35)


def profile(**overrides) -> PhaseProfile:
    defaults = dict(name="p", instructions=2_000_000, mix=MIX)
    defaults.update(overrides)
    return PhaseProfile(**defaults)


class TestConfig:
    def test_table_iii_defaults(self):
        config = ProcessorConfig()
        assert config.sockets == 2
        assert config.cores_per_socket == 6
        assert config.l3_size == 12 * 1024 * 1024
        assert Processor(config).total_cores == 12

    def test_hyperthreading_must_stay_disabled(self):
        with pytest.raises(ConfigurationError):
            ProcessorConfig(hyperthreading=True)
        with pytest.raises(ConfigurationError):
            ProcessorConfig(turbo_boost=True)

    def test_bad_topology_raises(self):
        with pytest.raises(ConfigurationError):
            ProcessorConfig(sockets=0)


class TestRunPhase:
    def test_produces_all_required_events(self):
        processor = Processor()
        events = processor.run_phase(
            profile(), np.random.default_rng(1), active_cores=2, ops_per_core=2000
        )
        assert set(REQUIRED_EVENTS) <= set(events)

    def test_events_scaled_to_nominal_instructions(self):
        processor = Processor()
        events = processor.run_phase(
            profile(instructions=5_000_000),
            np.random.default_rng(2),
            active_cores=2,
            ops_per_core=2000,
        )
        assert events["inst_retired.any"] == pytest.approx(5_000_000)

    def test_active_cores_bounds(self):
        processor = Processor()
        with pytest.raises(ConfigurationError):
            processor.run_phase(profile(), np.random.default_rng(3), active_cores=7)
        with pytest.raises(ConfigurationError):
            processor.run_phase(profile(), np.random.default_rng(3), active_cores=0)

    def test_ops_per_core_must_be_positive(self):
        processor = Processor()
        with pytest.raises(ConfigurationError):
            processor.run_phase(
                profile(), np.random.default_rng(4), ops_per_core=0
            )


class TestRunWorkload:
    def test_phases_sum(self):
        processor = Processor()
        phases = [profile(instructions=1_000_000), profile(instructions=3_000_000)]
        events = processor.run_workload(
            phases, np.random.default_rng(5), active_cores=2, ops_per_core=1500
        )
        assert events["inst_retired.any"] == pytest.approx(4_000_000)

    def test_empty_phase_list_raises(self):
        with pytest.raises(ConfigurationError):
            Processor().run_workload([], np.random.default_rng(6))

    def test_determinism(self):
        a = Processor().run_workload(
            [profile()], np.random.default_rng(7), active_cores=2, ops_per_core=1500
        )
        b = Processor().run_workload(
            [profile()], np.random.default_rng(7), active_cores=2, ops_per_core=1500
        )
        assert a == b

    def test_reset_between_workloads(self):
        processor = Processor()
        processor.run_workload(
            [profile()], np.random.default_rng(8), active_cores=2, ops_per_core=1000
        )
        processor.reset()
        assert processor.l3.resident_lines == 0
        assert processor.directory.tracked_lines == 0


#: Footprints whose pre-warm spans are shorter than the L3's set count,
#: between it and 4x the capacity (the L3 overflows at 4+ cores), and —
#: on a 96-set, 16-way L3 — past 4x the capacity.
FOOTPRINTS = {
    "short": dict(data_working_set=100 * 64, code_footprint=64 * 64,
                  shared_working_set=200 * 64),
    "wide": dict(data_working_set=1 << 20, code_footprint=1 << 20,
                 shared_working_set=2 << 20),
    "full": dict(data_working_set=2 << 20, code_footprint=3 << 20,
                 shared_working_set=8 << 20),
}
SMALL_L3 = ProcessorConfig(l3_size=96 * 1024, l3_associativity=16)


def cache_states(processor: Processor, active_cores: int) -> list:
    """Every set of every active core's private caches and of the L3:
    lines in LRU order with their dirty bits."""
    caches = [processor.l3] + [
        cache
        for core in processor.cores[:active_cores]
        for cache in (core.l1i, core.l1d, core.l2)
    ]
    return [
        [
            list(cache._sets[index].items())
            for index in range(cache.config.num_sets)
        ]
        for cache in caches
    ]


@pytest.mark.parametrize("active_cores", [1, 4, 6])
@pytest.mark.parametrize("shared_fraction", [0.0, 0.3])
@pytest.mark.parametrize(
    "footprint, config",
    [
        ("short", None),
        ("wide", None),
        ("full", None),
        ("full", SMALL_L3),
    ],
)
def test_start_workload_fill_equals_per_line_prewarm(
    monkeypatch, active_cores, shared_fraction, footprint, config
):
    """The one-pass fill leaves every cache exactly as installing each
    pre-warm span line by line does (same keys, LRU order, dirty bits).
    The golden digests only see the sets that sampled ops touch."""
    phases = [profile(shared_fraction=shared_fraction, **FOOTPRINTS[footprint])]
    filled = Processor(config)
    per_line = Processor(config)
    # Dirty state from an earlier workload must not leak into either.
    for processor in (filled, per_line):
        processor.run_workload(
            phases, np.random.default_rng(9), active_cores=active_cores,
            ops_per_core=100,
        )
    reference_engine.start_workload(per_line, phases, active_cores)

    def no_per_line_fallback(self, line_addr):
        raise AssertionError("start_workload fell back to per-line installs")

    monkeypatch.setattr(SetAssociativeCache, "install_line", no_per_line_fallback)
    filled.start_workload(phases, active_cores)
    assert cache_states(filled, active_cores) == cache_states(per_line, active_cores)


def test_l3_builds_only_the_sets_a_sample_reaches():
    """Pre-warm records the L3's spans without building a set; a short
    workload then builds only the sets its samples reach."""
    processor = Processor()
    phases = [profile(data_working_set=4 << 20, shared_fraction=0.3,
                      shared_working_set=2 << 20)]
    processor.start_workload(phases, active_cores=4)
    assert len(processor.l3._sets) == 0
    processor.run_workload(
        phases, np.random.default_rng(10), active_cores=4, ops_per_core=500
    )
    assert 0 < len(processor.l3._sets) < processor.l3.config.num_sets == 12_288


def test_events_from_sample_scaling():
    counts = SampleCounts(instructions=1000, loads=300, stores=100)
    accounting = CycleModel().account(counts, 1.3)
    events = events_from_sample(counts, accounting, scale=10.0)
    assert events["inst_retired.any"] == pytest.approx(10_000)
    assert events["mem_inst_retired.loads"] == pytest.approx(3000)
    assert events["mem_access.any"] == pytest.approx(4000)
    # Kernel + user partition instructions.
    assert events["inst_retired.kernel"] + events["inst_retired.user"] == pytest.approx(
        events["inst_retired.any"]
    )
