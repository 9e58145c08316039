"""Tests for the per-core simulation engine (``CoreModel.run_compact``)."""

import numpy as np
import pytest

from repro.arch.cache import LINE_SHIFT, CacheConfig, SetAssociativeCache
from repro.arch.coherence import CoherenceDirectory
from repro.arch.core_model import CoreModel
from repro.arch.trace import InstructionMix, PhaseProfile
from tests.arch.reference_engine import synthesize_compact

MIX = InstructionMix(load=0.3, store=0.1, branch=0.15, int_alu=0.35)


def make_core(core_id: int = 0, shared=None):
    if shared is None:
        l3 = SetAssociativeCache(CacheConfig("L3", 12 * 1024 * 1024, 16))
        directory = CoherenceDirectory(6)
    else:
        l3, directory = shared
    return CoreModel(core_id, l3, directory), (l3, directory)


def run_sample(core, p, n_ops, rng):
    """Synthesise ``n_ops`` ops of ``p`` for ``core`` and simulate them."""
    return core.run_compact(synthesize_compact(p, n_ops, core.core_id, rng))


def prewarm(core, p):
    """Fill each of ``core``'s caches (and the L3) from its pre-warm
    spans, with the whole warm tier and the shared regions."""
    spans = core.prewarm_spans(
        p,
        private_budget_lines=core.l3.config.size >> LINE_SHIFT,
        install_shared_and_code=True,
    )
    for cache, cache_spans in spans.items():
        cache.fill(cache_spans)


def profile(**overrides) -> PhaseProfile:
    defaults = dict(
        name="p",
        instructions=1_000_000,
        mix=MIX,
        code_footprint=128 * 1024,
        data_working_set=1 << 20,
    )
    defaults.update(overrides)
    return PhaseProfile(**defaults)


def test_sample_counts_basic_consistency():
    core, _ = make_core()
    counts = run_sample(core, profile(), 5000, np.random.default_rng(1))
    assert counts.instructions == 5000
    assert counts.loads + counts.stores > 0
    assert counts.l1i_hits + counts.l1i_misses == counts.l1i_accesses
    # Load service levels partition L1D misses that left the core.
    served = (
        counts.load_hit_lfb
        + counts.load_hit_l2
        + counts.load_hit_sibling
        + counts.load_hit_l3
        + counts.load_llc_miss
    )
    assert served <= counts.loads


def test_small_footprint_mostly_hits():
    core, _ = make_core()
    p = profile(code_footprint=4096, data_working_set=8192, hot_data_fraction=0.9)
    prewarm(core, p)
    run_sample(core, p, 2000, np.random.default_rng(2))  # warm
    counts = run_sample(core, p, 5000, np.random.default_rng(3))
    assert counts.load_llc_miss / counts.instructions < 0.01


def test_bigger_code_footprint_more_l1i_misses():
    small_core, _ = make_core()
    big_core, _ = make_core()
    rng = np.random.default_rng(4)
    small_p = profile(code_footprint=16 * 1024)
    big_p = profile(code_footprint=4 * 1024 * 1024)
    prewarm(small_core, small_p)
    prewarm(big_core, big_p)
    small = run_sample(small_core, small_p, 8000, rng)
    big = run_sample(big_core, big_p, 8000, np.random.default_rng(4))
    assert big.l1i_misses > small.l1i_misses


def test_bigger_working_set_more_dtlb_walks():
    a_core, _ = make_core()
    b_core, _ = make_core()
    small = run_sample(
        a_core,
        profile(data_working_set=1 << 20, hot_data_fraction=0.1,
                data_streaming_fraction=0.1),
        8000,
        np.random.default_rng(5),
    )
    large = run_sample(
        b_core,
        profile(data_working_set=256 << 20, hot_data_fraction=0.1,
                data_streaming_fraction=0.1, data_tail_fraction=0.5),
        8000,
        np.random.default_rng(5),
    )
    assert large.dtlb_walks > small.dtlb_walks


def test_sharing_produces_snoop_traffic():
    core0, shared = make_core(0)
    core1, _ = make_core(1, shared)
    p = profile(
        shared_fraction=0.5,
        shared_working_set=1 << 20,
        shared_write_fraction=0.3,
    )
    rng = np.random.default_rng(6)
    run_sample(core0, p, 6000, rng)
    counts1 = run_sample(core1, p, 6000, rng)
    snoops = counts1.snoop_hit + counts1.snoop_hite + counts1.snoop_hitm
    assert snoops > 0
    assert counts1.load_hit_sibling > 0


def test_no_sharing_no_snoops():
    core0, shared = make_core(0)
    core1, _ = make_core(1, shared)
    p = profile(shared_fraction=0.0)
    rng = np.random.default_rng(7)
    run_sample(core0, p, 4000, rng)
    counts1 = run_sample(core1, p, 4000, rng)
    assert counts1.snoop_hit + counts1.snoop_hite + counts1.snoop_hitm == 0


def test_prewarm_reduces_llc_misses():
    cold_core, _ = make_core()
    warm_core, _ = make_core()
    p = profile(data_working_set=8 << 20, hot_data_fraction=0.2)
    rng_a = np.random.default_rng(8)
    rng_b = np.random.default_rng(8)
    cold = run_sample(cold_core, p, 6000, rng_a)
    prewarm(warm_core, p)
    warm = run_sample(warm_core, p, 6000, rng_b)
    assert warm.load_llc_miss < cold.load_llc_miss


def test_reset_clears_private_state():
    core, _ = make_core()
    p = profile()
    run_sample(core, p, 3000, np.random.default_rng(9))
    core.reset()
    assert core.l1d.resident_lines == 0
    assert core.l1i.resident_lines == 0
    assert core.l2.resident_lines == 0
    assert core.branch.stats.predicted == 0


def test_determinism():
    a_core, _ = make_core()
    b_core, _ = make_core()
    p = profile(kernel_fraction=0.2, shared_fraction=0.1)
    a = run_sample(a_core, p, 5000, np.random.default_rng(10))
    b = run_sample(b_core, p, 5000, np.random.default_rng(10))
    assert vars(a) == vars(b)
