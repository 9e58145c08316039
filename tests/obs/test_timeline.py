"""Tests for the time-resolved interval sampler and its series."""

import json
import statistics

import pytest

from repro.cluster.testbed import Cluster, MeasurementConfig
from repro.errors import AnalysisError, ConfigurationError
from repro.obs.stats import best_of
from repro.obs.timeline import (
    TimelineConfig,
    TimelineSampler,
    TimelineSeries,
    current_timeline,
    observe_fault,
    observe_phase_record,
    observe_task,
    timeline_sampling,
)
from repro.workloads import RunContext, workload_by_name
from repro.workloads.suite import SUITE

FAST = MeasurementConfig(slaves_measured=1, active_cores=2, ops_per_core=1500)

#: Acceptance bar: sampling (interval sampler on) must cost less than
#: this share of an unsampled characterization.
TIMELINE_OVERHEAD_BUDGET_PCT = 5.0
#: Interleaved off/on pairs behind the overhead gate's paired median.
#: One pair's ratio spreads +-30% on a shared 2-vCPU host; the median of
#: 15 still spread ~2.7% (one of ten pinned runs read 5.7%), of 75 ~1.2%.
PAIRS = 75


def _characterize(name="S-Grep", timeline=None, seed=5):
    return Cluster().characterize_workload(
        workload_by_name(name),
        RunContext(scale=0.2, seed=seed),
        FAST,
        timeline=timeline,
    )


class TestTimelineConfig:
    def test_defaults_valid(self):
        config = TimelineConfig()
        assert config.interval_ms == 10.0
        assert config.ramp_up_fraction == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval_ms": -1.0},
            {"ramp_up_fraction": -0.1},
            {"ramp_up_fraction": 1.0},
            {"max_run_samples": 1},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TimelineConfig(**kwargs)

    def test_token_is_stable_and_distinct(self):
        assert TimelineConfig().token() == TimelineConfig().token()
        assert (
            TimelineConfig(interval_ms=5.0).token()
            != TimelineConfig(interval_ms=10.0).token()
        )


class TestSamplerMechanics:
    def test_ambient_activation_and_restore(self):
        sampler = TimelineSampler(TimelineConfig(interval_ms=0.0))
        assert current_timeline() is None
        with timeline_sampling(sampler):
            assert current_timeline() is sampler
            observe_task("start")
            observe_task("done")
        assert current_timeline() is None
        assert len(sampler) >= 1

    def test_observers_are_noops_without_a_sampler(self):
        # Must not raise — this is the disabled path every normal run takes.
        observe_phase_record("map", 0, 10, 100, 80)
        observe_task("start")
        observe_fault("crash")

    def test_seq_strictly_increases_and_t_ms_monotone(self):
        sampler = TimelineSampler(TimelineConfig(interval_ms=0.0))
        with timeline_sampling(sampler):
            for _ in range(5):
                observe_task("start")
                observe_phase_record("map", 0, 10, 100, 80)
                observe_task("done")
        series = sampler.series()
        seqs = [s["seq"] for s in series.samples]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        times = [s["t_ms"] for s in series.samples]
        assert times == sorted(times)
        assert all(s["source"] in ("run", "sim", "slave") for s in series.samples)

    def test_phase_records_accumulate_per_worker(self):
        sampler = TimelineSampler(TimelineConfig(interval_ms=0.0))
        sampler.phase_record("map", 0, 10, 100, 80, "")
        sampler.phase_record("shuffle", 1, 5, 64, 40, "")
        sampler.phase_record("map", 0, 0, 0, 0, "probe")  # tagged: no commits
        last_run = sampler.series().run_samples[-1]
        assert last_run["records_committed"] == 15
        assert last_run["bytes_committed"] == 120
        assert last_run["shuffle_bytes"] == 64  # shuffle reads count bytes_in
        assert last_run["tagged_records"] == 1
        assert last_run["workers"]["0"]["records"] == 10
        assert last_run["workers"]["1"]["shuffle_bytes"] == 64

    def test_fault_and_retry_tallies(self):
        sampler = TimelineSampler(TimelineConfig(interval_ms=0.0))
        sampler.fault_injected("crash")
        sampler.fault_injected("crash")
        sampler.task_retried()
        sampler.task_speculated()
        last = sampler.series().run_samples[-1]
        assert last["faults"] == {"crash": 2}
        assert last["retries"] == 1
        assert last["speculations"] == 1

    def test_interval_throttles_run_samples(self):
        # A huge interval means state changes coalesce into few samples.
        sampler = TimelineSampler(TimelineConfig(interval_ms=60_000.0))
        for _ in range(100):
            sampler.task_started()
            sampler.task_finished()
        series = sampler.series()
        # One initial sample at most plus the forced final snapshot.
        assert len(series.run_samples) <= 2
        assert series.run_samples[-1]["tasks_done"] == 100

    def test_decimation_bounds_run_samples(self):
        config = TimelineConfig(interval_ms=0.0, max_run_samples=8)
        sampler = TimelineSampler(config)
        for _ in range(100):
            sampler.task_started()
        series = sampler.series()
        assert len(series.run_samples) <= config.max_run_samples + 1
        # Decimation doubles the effective interval away from zero.
        assert series.interval_ms > 0.0
        # The final state always survives compaction.
        assert series.run_samples[-1]["tasks_started"] == 100


class TestSeries:
    def test_ramp_up_windowing(self):
        samples = tuple(
            {"seq": i + 1, "t_ms": float(i * 10), "source": "run",
             "records_committed": i * 5, "bytes_committed": i * 50,
             "shuffle_bytes": 0}
            for i in range(11)  # t_ms 0..100
        )
        series = TimelineSeries(
            samples=samples, ramp_up_fraction=0.3, interval_ms=10.0
        )
        assert series.duration_ms == 100.0
        assert series.ramp_up_ms == pytest.approx(30.0)
        steady = series.steady_state_run_samples()
        assert [s["t_ms"] for s in steady] == [30.0 + 10 * i for i in range(8)]
        rates = series.steady_state_rates()
        assert rates["window_s"] == pytest.approx(0.07)
        assert rates["records_per_s"] == pytest.approx((50 - 15) / 0.07)

    def test_rates_degrade_to_zero_on_tiny_windows(self):
        series = TimelineSeries(
            samples=(
                {"seq": 1, "t_ms": 0.0, "source": "run",
                 "records_committed": 0, "bytes_committed": 0,
                 "shuffle_bytes": 0},
            ),
            ramp_up_fraction=0.3,
            interval_ms=10.0,
        )
        assert series.steady_state_rates()["records_per_s"] == 0.0

    def test_reconcile_requires_slave_samples(self):
        series = TimelineSeries(samples=(), ramp_up_fraction=0.3, interval_ms=1.0)
        with pytest.raises(AnalysisError, match="no slave samples"):
            series.reconcile({"LOAD": 1.0})

    def test_reconcile_rejects_divergence(self):
        series = TimelineSeries(
            samples=(
                {"seq": 1, "t_ms": 1.0, "source": "slave", "slave": 0,
                 "metrics": {"LOAD": 1.0, "STORE": 2.0}},
            ),
            ramp_up_fraction=0.3,
            interval_ms=1.0,
        )
        series.reconcile({"LOAD": 1.0, "STORE": 2.0})  # exact: fine
        with pytest.raises(AnalysisError, match="STORE"):
            series.reconcile({"LOAD": 1.0, "STORE": 2.0000001})

    def test_payload_roundtrip_and_json(self):
        sampler = TimelineSampler(TimelineConfig(interval_ms=0.0))
        sampler.phase_record("map", 0, 10, 100, 80, "")
        sampler.slave_metrics(0, {"LOAD": 0.5})
        series = sampler.series()
        hydrated = TimelineSeries.from_payload(
            json.loads(json.dumps(series.to_payload()))
        )
        assert hydrated.samples == series.samples
        assert hydrated.ramp_up_fraction == series.ramp_up_fraction
        assert hydrated.interval_ms == series.interval_ms


class TestEndToEnd:
    def test_matrix_bit_identical_with_timeline_on(self):
        """The pinned invariant: sampling is purely observational."""
        plain = _characterize(timeline=None)
        sampled = _characterize(timeline=TimelineConfig(interval_ms=2.0))
        assert sampled.metrics == plain.metrics
        assert sampled.per_slave == plain.per_slave
        assert plain.timeline is None
        assert sampled.timeline is not None

    @pytest.mark.slow
    def test_sampling_overhead_within_budget(self):
        workload = SUITE[0]
        context = RunContext(scale=0.3, seed=42)
        measurement = MeasurementConfig(
            slaves_measured=1, active_cores=3, ops_per_core=2000
        )
        config = TimelineConfig(interval_ms=5.0)

        def characterize(timeline=None):
            return Cluster().characterize_workload(
                workload, context, measurement, timeline=timeline
            )

        plain = characterize()
        sampled = characterize(config)
        assert sampled.metrics == plain.metrics
        assert sampled.per_slave == plain.per_slave

        # Each run is short (about 0.1 s on a 2-vCPU host) and shared hosts
        # jitter +-20%, more than the budget, so off/on are timed in
        # interleaved pairs (both legs see the same host weather; the
        # leg that runs first alternates) and the overhead is the median
        # of the pairs' on/off ratios.  Unlike the cleanest pair's ratio,
        # the median does not follow the low tail of jitter, so a cost
        # of a few percent shows; it is not clamped, and may read < 0.
        ratios = []
        for pair in range(PAIRS):
            if pair % 2:
                on_s = best_of(lambda: characterize(config), 1)
                off_s = best_of(characterize, 1)
            else:
                off_s = best_of(characterize, 1)
                on_s = best_of(lambda: characterize(config), 1)
            ratios.append(on_s / off_s)
        overhead_pct = 100.0 * (statistics.median(ratios) - 1.0)
        assert overhead_pct < TIMELINE_OVERHEAD_BUDGET_PCT, (
            f"median sampled/unsampled over {PAIRS} pairs = "
            f"{overhead_pct:+.3f}% (ratios {min(ratios):.3f}-"
            f"{max(ratios):.3f}; {len(sampled.timeline)} samples)"
        )

    def test_collected_series_reconciles_and_verifies(self):
        characterization = _characterize(
            timeline=TimelineConfig(interval_ms=2.0)
        )
        series = characterization.timeline
        assert len(series.run_samples) >= 2
        assert len(series.sim_samples) >= 1
        assert len(series.slave_samples) == len(characterization.per_slave)
        # reconcile() already ran inside characterize_workload; rerunning
        # it on the returned series must also hold — including after a
        # JSON round-trip (what the store does).
        series.reconcile(characterization.metrics)
        hydrated = TimelineSeries.from_payload(
            json.loads(json.dumps(series.to_payload()))
        )
        hydrated.reconcile(characterization.metrics)

    def test_sim_windows_partition_each_slave(self):
        characterization = _characterize(
            timeline=TimelineConfig(interval_ms=2.0)
        )
        series = characterization.timeline
        slaves = {s["slave"] for s in series.sim_samples}
        assert slaves  # at least one measured slave recorded windows
        for sample in series.sim_samples:
            assert sample["events"]
            assert len(sample["metrics"]) == 45

    def test_faulted_run_lands_fault_tallies_on_timeline(self):
        from repro.faults import parse_fault_spec

        plan = parse_fault_spec("crash=0.3,attempts=5", seed=3)
        characterization = Cluster().characterize_workload(
            workload_by_name("S-Grep"),
            RunContext(scale=0.2, seed=5),
            FAST,
            faults=plan,
            timeline=TimelineConfig(interval_ms=0.0),
        )
        last = characterization.timeline.run_samples[-1]
        if characterization.faults and characterization.faults.get("injected"):
            assert last["faults"]
            assert last["retries"] >= 1
