"""CLI smoke tests: exit codes and key output lines for every subcommand
that runs in seconds, plus the friendly unknown-workload path."""

import dataclasses
import json
import logging

import pytest

from repro import cli
from repro.cli import EXIT_USAGE, main
from repro.obs.trace import Tracer, validate_trace
from repro.workloads import workload_by_name
from tests.analysis.test_dashboard import _audit


class TestList:
    def test_exit_code_and_table(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "H-Sort" in out and "S-PageRank" in out
        assert out.count("\n") >= 33  # header + rule + 32 workloads


class TestRun:
    def test_runs_and_reports_checks(self, capsys):
        assert main(["run", "S-Grep", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "output records" in out
        assert "matches_correct = 1.0" in out

    def test_unknown_workload_exits_2_with_suggestions(self, capsys):
        assert main(["run", "S-Grap"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown workload 'S-Grap'" in err
        assert "S-Grep" in err  # closest-match suggestion
        assert "repro list" in err

    def test_no_traceback_for_typo(self, capsys):
        # The friendly path returns instead of raising.
        assert main(["run", "PageRank"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "PageRank" in err  # suggests H-/S-PageRank


class TestCharacterize:
    def test_prints_all_45_metrics(self, capsys):
        code = main(
            ["characterize", "H-Grep", "--scale", "0.2", "--cores", "2",
             "--ops", "1200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "45 Table II metrics" in out
        assert "L3_MISS" in out and "FP_TO_MEM" in out

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["characterize", "H-Sortt"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "H-Sort" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--cores", "7"], "active_cores=7"),
            (["--cores", "0"], "active_cores"),
            (["--ops", "0"], "ops_per_core"),
            (["--slaves", "5"], "slaves_measured"),
        ],
        ids=["cores-7", "cores-0", "ops-0", "slaves-5"],
    )
    def test_bad_measurement_exits_2_with_one_line(
        self, capsys, monkeypatch, flags, message
    ):
        """Rejected before the workload runs: its runner is never called."""
        runs = []
        real = workload_by_name("H-Sort")
        spied = dataclasses.replace(
            real, runner=lambda context: runs.append(context) or real.runner(context)
        )
        monkeypatch.setattr(cli, "workload_by_name", lambda label: spied)
        code = main(["characterize", "H-Sort", "--scale", "0.1", *flags])
        assert code == EXIT_USAGE
        assert runs == []
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.startswith("repro: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err


class TestCharacterizeTimeline:
    def test_timeline_flag_prints_summary(self, capsys):
        code = main(
            ["characterize", "S-Grep", "--scale", "0.2", "--cores", "2",
             "--ops", "1200", "--timeline", "--timeline-interval", "2",
             "--flight-capacity", "64"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "ramp-up" in out
        assert "45 Table II metrics" in out


class TestReport:
    def test_writes_self_contained_dashboard(self, tmp_path, capsys):
        out_path = tmp_path / "report.html"
        code = main(
            ["report", "--limit", "2", "--scale", "0.2", "--cores", "2",
             "--ops", "1200", "--timeline-interval", "2",
             "--html", str(out_path)]
        )
        assert code == 0
        html_doc = out_path.read_text()
        assert html_doc.startswith("<!DOCTYPE html>")
        audit = _audit(html_doc)
        assert audit.scripts == 0
        assert audit.external == []
        assert audit.tables >= 1
        assert "Suite heatmap" in html_doc
        out = capsys.readouterr().out
        assert "2 timelines" in out

    def test_no_timeline_flag_disables_sampling(self, tmp_path, capsys):
        out_path = tmp_path / "report.html"
        code = main(
            ["report", "--limit", "2", "--scale", "0.2", "--cores", "2",
             "--ops", "1200", "--no-timeline", "--html", str(out_path)]
        )
        assert code == 0
        assert "0 timelines" in capsys.readouterr().out


class TestSubset:
    ARGS = ["subset", "--limit", "6", "--scale", "0.2", "--cores", "2",
            "--ops", "1200", "--timeline-interval", "2"]

    def test_budgeted_table_lists_costs_and_coverage(self, capsys):
        code = main(self.ARGS + ["--budget", "1e9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cum coverage" in out
        assert "timeline" in out  # measured costs, from the sampler
        assert "selected 6/6 workloads" in out
        assert "coverage 1.0000" in out

    def test_budgeted_selection_is_deterministic(self, capsys):
        assert main(self.ARGS + ["--budget", "0.5"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--budget", "0.5"]) == 0
        assert capsys.readouterr().out == first

    def test_negative_budget_exits_2(self, capsys):
        assert main(["subset", "--budget", "-3"]) == EXIT_USAGE
        assert "positive" in capsys.readouterr().err

    def test_budget_below_cheapest_exits_2(self, capsys):
        assert main(self.ARGS + ["--budget", "1e-12"]) == EXIT_USAGE
        assert "cheapest" in capsys.readouterr().err

    def test_k_path_prints_representatives(self, capsys):
        code = main(self.ARGS + ["--k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "K = 3 clusters" in out
        assert "dist to center" in out

    def test_bad_k_exits_2(self, capsys):
        assert main(self.ARGS + ["--k", "99"]) == EXIT_USAGE
        assert "--k must be in" in capsys.readouterr().err

    def test_budget_and_k_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["subset", "--budget", "1", "--k", "3"])
        assert excinfo.value.code == EXIT_USAGE


class TestServe:
    def test_help_exits_zero_and_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--port" in out
        assert "--cache-dir" in out
        assert "characterization service" in out
        assert "/suite/matrix" in out


class TestTrace:
    ARGS = ["--scale", "0.3", "--cores", "2", "--ops", "1200"]

    def test_exported_trace_validates(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        root = logging.getLogger("repro")
        level = root.level
        try:
            code = main(["--log-level", "debug", "trace", "H-WordCount",
                         *self.ARGS, "--out", str(out)])
        finally:  # drop the handler bound to the captured stderr
            for handler in list(root.handlers):
                if getattr(handler, "_repro_obs", False):
                    root.removeHandler(handler)
            root.setLevel(level)
        assert code == 0
        assert "spans ->" in capsys.readouterr().out
        assert validate_trace(json.loads(out.read_text()), min_events=5) == []

    def test_invalid_export_exits_1(self, tmp_path, capsys, monkeypatch):
        export = Tracer.to_chrome

        def unbalanced(self, instance=None):
            document = export(self, instance)
            document["traceEvents"].append(
                {"name": "open", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1}
            )
            return document

        monkeypatch.setattr(Tracer, "to_chrome", unbalanced)
        out = tmp_path / "trace.json"
        assert main(["trace", "S-Grep", *self.ARGS, "--out", str(out)]) == 1
        assert "never closed" in capsys.readouterr().err
        assert not out.exists()


class TestTraceMerge:
    def _spill(self, store, instance, role, pid, epoch):
        from repro.durable import write_json
        from repro.obs.fleet import telemetry_dir

        write_json(
            telemetry_dir(store, "traces") / f"{instance}-{pid}.json",
            {
                "traceEvents": [
                    {"name": "work", "ph": "X", "ts": 10.0, "dur": 5.0,
                     "pid": pid, "tid": 1, "cat": role, "args": {}}
                ],
                "otherData": {
                    "epoch_unix_s": epoch, "instance": instance,
                    "role": role, "pid": pid,
                },
            },
        )

    def test_merges_spills_into_one_trace(self, tmp_path, capsys):
        store = tmp_path / "store"
        self._spill(store, "server-a", "server", 11, 100.0)
        self._spill(store, "pool-b", "pool", 22, 100.5)
        out = tmp_path / "merged.json"
        assert main(["trace", "--merge", str(store), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "2 processes" in stdout or "2 pid" in stdout.lower()
        merged = json.loads(out.read_text())
        pids = {e["pid"] for e in merged["traceEvents"] if e["ph"] == "X"}
        assert pids == {11, 22}
        assert validate_trace(merged, require_process_names=True) == []

    def test_merge_with_no_spills_exits_2(self, tmp_path, capsys):
        assert (
            main(["trace", "--merge", str(tmp_path), "--out",
                  str(tmp_path / "m.json")])
            == EXIT_USAGE
        )
        assert "no trace spills" in capsys.readouterr().err

    def test_trace_without_workload_or_merge_exits_2(self, capsys):
        assert main(["trace"]) == EXIT_USAGE
        assert "--merge" in capsys.readouterr().err


class TestStatus:
    def test_store_mode_prints_fleet_table(self, tmp_path, capsys):
        from repro.obs.fleet import TelemetryAgent
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter(
            "repro_http_requests_total", "requests", ("code",)
        ).inc(5, code="200")
        TelemetryAgent(
            tmp_path, instance="server-x", role="server", registry=registry
        ).write_now()
        assert main(["status", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "server-x" in out
        assert "processes" in out

    def test_unreachable_service_exits_nonzero(self, capsys):
        # A port no listener holds: the client error must be friendly.
        assert main(["status", "--url", "http://127.0.0.1:9",
                     "--timeout", "0.5"]) == 1
        assert "repro:" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
