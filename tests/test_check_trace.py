"""Unit tests for the Chrome trace validator and ``repro trace``'s exit code."""

import json

from repro.cli import _write_trace
from repro.obs.trace import validate_trace


def _nesting(events):
    return validate_trace({"traceEvents": events})


def _labels(events):
    return validate_trace({"traceEvents": events}, require_process_names=True)


def _event(ph="X", name="work", ts=0.0, pid=1, tid=1, **extra):
    event = {"name": name, "ph": ph, "ts": ts, "pid": pid, "tid": tid}
    if ph == "X":
        event.setdefault("dur", extra.pop("dur", 1.0))
    if ph == "i":
        event.setdefault("s", "t")
    event.update(extra)
    return event


class TestStructuralChecks:
    def test_valid_trace_passes(self):
        document = {"traceEvents": [_event(), _event(ph="i", ts=2.0)]}
        assert validate_trace(document) == []

    def test_negative_duration_rejected(self):
        document = {"traceEvents": [_event(dur=-1.0)]}
        problems = validate_trace(document)
        assert any("dur" in p for p in problems)

    def test_unknown_phase_rejected(self):
        document = {"traceEvents": [_event(ph="Q")]}
        assert any("'ph'" in p for p in validate_trace(document))


class TestDurationNesting:
    def test_balanced_nesting_passes(self):
        events = [
            _event(ph="B", name="outer", ts=0.0),
            _event(ph="B", name="inner", ts=1.0),
            _event(ph="E", name="inner", ts=2.0),
            _event(ph="E", name="outer", ts=3.0),
        ]
        assert _nesting(events) == []

    def test_end_without_begin_fails(self):
        events = [_event(ph="E", name="orphan", ts=1.0)]
        problems = _nesting(events)
        assert any("no open 'B'" in p for p in problems)

    def test_unclosed_begin_fails(self):
        events = [_event(ph="B", name="leak", ts=0.0)]
        problems = _nesting(events)
        assert any("never closed" in p for p in problems)

    def test_mismatched_names_fail(self):
        events = [
            _event(ph="B", name="alpha", ts=0.0),
            _event(ph="E", name="beta", ts=1.0),
        ]
        problems = _nesting(events)
        assert any("closes 'B'" in p for p in problems)

    def test_backwards_timestamp_fails(self):
        events = [
            _event(ph="B", name="a", ts=5.0),
            _event(ph="E", name="a", ts=3.0),
        ]
        problems = _nesting(events)
        assert any("negative duration" in p or "backwards" in p for p in problems)

    def test_interleaved_threads_keep_separate_stacks(self):
        events = [
            _event(ph="B", name="t1-span", ts=0.0, tid=1),
            _event(ph="B", name="t2-span", ts=0.5, tid=2),
            _event(ph="E", name="t1-span", ts=1.0, tid=1),
            _event(ph="E", name="t2-span", ts=1.5, tid=2),
        ]
        assert _nesting(events) == []

    def test_cross_thread_imbalance_still_fails(self):
        events = [
            _event(ph="B", name="span", ts=0.0, tid=1),
            _event(ph="E", name="span", ts=1.0, tid=2),  # wrong thread
        ]
        problems = _nesting(events)
        assert len(problems) == 2  # orphan E on tid 2, unclosed B on tid 1


def _meta(name, label, pid=1, tid=0):
    return {
        "name": name, "ph": "M", "pid": pid, "tid": tid,
        "args": {"name": label},
    }


class TestMetadataEvents:
    def test_metadata_phase_accepted_without_ts(self):
        document = {"traceEvents": [_meta("process_name", "server"), _event()]}
        assert validate_trace(document) == []

    def test_lane_metadata_needs_nonempty_args_name(self):
        document = {"traceEvents": [_meta("process_name", "")]}
        problems = validate_trace(document)
        assert any("args.name" in p for p in problems)

    def test_lane_metadata_needs_args_at_all(self):
        event = {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1}
        problems = validate_trace({"traceEvents": [event]})
        assert any("args.name" in p for p in problems)

    def test_other_metadata_names_unconstrained(self):
        event = {"name": "num_cpus", "ph": "M", "pid": 1, "tid": 0,
                 "args": {"number": 8}}
        assert validate_trace({"traceEvents": [event, _event()]}) == []


class TestFleetChecks:
    def _fleet_events(self):
        """Two pids, fully labeled — what merge_traces emits."""
        return [
            _meta("process_name", "server-a", pid=1),
            _meta("process_name", "pool-b", pid=2),
            _meta("thread_name", "main", pid=1, tid=1),
            _meta("thread_name", "main", pid=2, tid=2),
            _event(pid=1, tid=1),
            _event(pid=2, tid=2, ts=1.0),
        ]

    def test_min_pids_satisfied(self):
        document = {"traceEvents": self._fleet_events()}
        assert validate_trace(document, min_pids=2) == []

    def test_min_pids_counts_real_events_only(self):
        # Metadata for pid 2 but no real events there: still one pid.
        events = [_event(pid=1), _meta("process_name", "ghost", pid=2)]
        problems = validate_trace({"traceEvents": events}, min_pids=2)
        assert any("at least 2 pids" in p for p in problems)

    def test_labeled_fleet_passes_metadata_check(self):
        assert _labels(self._fleet_events()) == []

    def test_missing_process_name_reported(self):
        events = [_event(pid=7, tid=1), _meta("thread_name", "main", pid=7, tid=1)]
        problems = _labels(events)
        assert problems == ["pid 7: has events but no 'process_name' metadata"]

    def test_missing_thread_name_reported_per_thread(self):
        events = [
            _meta("process_name", "server", pid=1),
            _meta("thread_name", "main", pid=1, tid=1),
            _event(pid=1, tid=1),
            _event(pid=1, tid=2, ts=1.0),  # tid 2 unlabeled
        ]
        problems = _labels(events)
        assert len(problems) == 1 and "tid 2" in problems[0]

    def test_require_process_names_via_main(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        document = {"traceEvents": [_event(pid=3)]}
        assert _write_trace(document, str(path), require_process_names=True) == 1
        assert "process_name" in capsys.readouterr().err
        assert not path.exists()


class TestMainExitCodes:
    """The exit code ``repro trace`` returns for the document it exports."""

    def _write(self, tmp_path, document, **bounds):
        path = tmp_path / "trace.json"
        code = _write_trace(document, str(path), **bounds)
        assert path.exists() == (code == 0)
        return code

    def test_valid_trace_exits_zero(self, tmp_path):
        document = {"traceEvents": [
            _event(),
            _event(ph="B", name="d", ts=1.0),
            _event(ph="E", name="d", ts=2.0),
        ]}
        assert self._write(tmp_path, document) == 0
        written = json.loads((tmp_path / "trace.json").read_text())
        assert written == document

    def test_invalid_nesting_exits_nonzero(self, tmp_path, capsys):
        document = {"traceEvents": [_event(ph="E", name="x", ts=1.0)]}
        assert self._write(tmp_path, document) == 1
        assert "no open 'B'" in capsys.readouterr().err

    def test_non_monotone_duration_exits_nonzero(self, tmp_path):
        document = {"traceEvents": [
            _event(ph="B", name="x", ts=9.0),
            _event(ph="E", name="x", ts=1.0),
        ]}
        assert self._write(tmp_path, document) == 1

    def test_min_events_enforced(self, tmp_path):
        assert self._write(tmp_path, {"traceEvents": []}) == 1

    def test_real_exporter_output_passes(self, tmp_path):
        """The validator accepts what repro's own tracer exports."""
        from repro.obs.trace import Tracer, tracing, span

        tracer = Tracer()
        with tracing(tracer):
            with span("outer", "test"):
                with span("inner", "test"):
                    pass
        assert self._write(tmp_path, tracer.to_chrome(), min_events=2) == 0
