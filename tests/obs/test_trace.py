"""Tests for structured spans and the Chrome trace export."""

import json

import pytest

from repro.cluster.testbed import Cluster, MeasurementConfig
from repro.obs.stats import best_of
from repro.obs.trace import (
    _NULL_SPAN,
    Tracer,
    current_tracer,
    instant,
    span,
    tracing,
)
from repro.workloads import RunContext, workload_by_name
from repro.workloads.suite import SUITE

#: Acceptance bar: disabled tracing must cost less than this share of
#: the untraced run.
TRACING_OVERHEAD_BUDGET_PCT = 2.0


class TestTracer:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("work", "test", item=3):
            pass
        assert len(tracer) == 1
        event = tracer.events[0]
        assert event.name == "work"
        assert event.phase == "X"
        assert event.dur_us >= 0.0
        assert event.args == {"item": 3}

    def test_span_records_even_when_body_raises(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert len(tracer) == 1

    def test_nested_spans_overlap_in_time(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events  # inner closes (and records) first
        assert outer.name == "outer" and inner.name == "inner"
        assert outer.ts_us <= inner.ts_us
        assert outer.ts_us + outer.dur_us >= inner.ts_us + inner.dur_us

    def test_instant_event(self):
        tracer = Tracer()
        tracer.instant("fault", "faults", kind="task-crash")
        event = tracer.events[0]
        assert event.phase == "i"
        assert event.dur_us == 0.0

    def test_to_chrome_is_valid_and_json_serialisable(self):
        tracer = Tracer()
        with tracer.span("work", "test"):
            tracer.instant("marker")
        document = tracer.to_chrome()
        json.dumps(document)  # must be JSON-safe
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert len(events) == 2
        complete = next(e for e in events if e["ph"] == "X")
        assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(complete)
        marker = next(e for e in events if e["ph"] == "i")
        assert marker["s"] == "t"
        assert "dur" not in marker

    def test_summary_ranks_by_total_time(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        summary = tracer.summary()
        names = [entry["name"] for entry in summary]
        assert set(names) == {"a", "b"}
        by_name = {entry["name"]: entry for entry in summary}
        assert by_name["a"]["count"] == 2
        assert by_name["b"]["count"] == 1


class TestAmbientTracing:
    def test_disabled_by_default(self):
        assert current_tracer() is None

    def test_disabled_span_is_the_shared_nullcontext(self):
        """The zero-cost guarantee: no allocation on the disabled path."""
        assert span("anything", "cat", arg=1) is _NULL_SPAN
        assert span("other") is _NULL_SPAN
        with span("still-fine"):
            pass
        instant("ignored")  # must not raise

    def test_tracing_activates_and_restores(self):
        tracer = Tracer()
        with tracing(tracer):
            assert current_tracer() is tracer
            with span("inside", "test"):
                pass
            instant("mark")
        assert current_tracer() is None
        assert len(tracer) == 2

    def test_tracing_none_is_a_noop(self):
        with tracing(None) as active:
            assert active is None
            assert current_tracer() is None


class TestBitIdentity:
    def test_traced_characterization_matches_untraced(self):
        """Tracing observes only: the 45-metric vector must not move."""
        workload = workload_by_name("S-Grep")
        context = RunContext(scale=0.2, seed=5)
        measurement = MeasurementConfig(
            slaves_measured=1, active_cores=2, ops_per_core=1500
        )

        untraced = Cluster().characterize_workload(workload, context, measurement)
        tracer = Tracer()
        with tracing(tracer):
            traced = Cluster().characterize_workload(
                workload, context, measurement
            )

        assert len(tracer) > 0
        assert traced.metrics == untraced.metrics
        assert traced.per_slave == untraced.per_slave


@pytest.mark.slow
def test_disabled_tracing_overhead_within_budget():
    """The span sites are always compiled in, so their disabled cost
    cannot be measured by diffing two runs of the same code: measure
    one disabled span directly and project it onto the span count a
    traced run of the same workload records."""
    workload = SUITE[0]
    context = RunContext(scale=0.3, seed=42)
    workload.run(context)  # warm caches before timing
    untraced_s = best_of(lambda: workload.run(context), 2)

    tracer = Tracer()
    with tracing(tracer):
        workload.run(context)
    spans_per_run = len(tracer)

    calls = 50_000

    def hammer() -> None:
        for _ in range(calls):
            with span("bench-noop", "bench", worker=0):
                pass

    noop_span_s = best_of(hammer, 3) / calls
    overhead_pct = 100.0 * (spans_per_run * noop_span_s) / untraced_s
    assert overhead_pct < TRACING_OVERHEAD_BUDGET_PCT, (
        f"{noop_span_s * 1e9:.1f}ns per disabled span x {spans_per_run} "
        f"spans = {overhead_pct:.4f}% of the {untraced_s:.4f}s untraced run"
    )
