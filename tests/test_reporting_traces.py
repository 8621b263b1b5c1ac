"""Tests for instrumented experiment runs (``python -m repro trace``)."""

import json

import pytest

from repro.errors import RegistryError
from repro.reporting import render_trace_report, run_trace
from repro.runner import runnable_experiments


class TestRegistry:
    def test_traceable_ids_are_registered_experiments(self, capsys):
        from repro.__main__ import main
        from repro.reporting import registry

        table = registry()
        assert main(["trace"]) == 2
        listed = capsys.readouterr().out.splitlines()[0]
        traceable = listed.split(": ", 1)[1].split(", ")
        assert traceable == runnable_experiments()
        for experiment_id in traceable:
            assert experiment_id in table

    def test_unknown_experiment_rejected(self):
        with pytest.raises(RegistryError):
            run_trace("E999")

    def test_untraceable_experiment_rejected_with_hint(self):
        with pytest.raises(RegistryError, match="not traceable"):
            run_trace("T1")


class TestTraceRuns:
    @pytest.fixture(scope="class")
    def x2_report(self):
        return run_trace("X2")

    def test_x2_records_spans_and_metrics(self, x2_report):
        snapshot = x2_report.snapshot()
        assert snapshot["spans"]["recorded"] > 0
        assert snapshot["counters"]["scheduler.tasks_placed"] == 30
        assert "scheduler.completion_s.shared" in snapshot["histograms"]
        assert x2_report.headline["gain"] >= 1.0

    def test_x2_spans_tagged_by_subsystem(self, x2_report):
        by_subsystem = x2_report.observability.spans.by_tag("subsystem")
        assert "scheduler.online" in by_subsystem
        count, total = by_subsystem["scheduler.online"]
        assert count > 0 and total > 0.0

    def test_x7_flow_spans_and_imbalance(self):
        report = run_trace("X7")
        snapshot = report.snapshot()
        assert snapshot["counters"]["loadbalance.flows.ecmp"] == 8
        assert snapshot["counters"]["loadbalance.flows.least_loaded"] == 8
        assert report.headline["speedup"] >= 1.0 - 1e-9
        gauges = snapshot["gauges"]
        assert gauges["loadbalance.imbalance.least_loaded"]["last"] <= (
            gauges["loadbalance.imbalance.ecmp"]["last"] + 1e-9
        )

    def test_e6_metrics_only_trace(self):
        report = run_trace("E6")
        snapshot = report.snapshot()
        assert snapshot["spans"]["recorded"] == 0
        counters = snapshot["counters"]
        # One evaluation per fleet size of E6's five-fleet sweep.
        assert counters["switch.branded-tor.fleet_evaluations"] == 5
        assert any(name.endswith(".usd.hardware") for name in counters)

    def test_report_renders_and_exports(self, x2_report, tmp_path):
        text = render_trace_report(x2_report)
        assert "per-subsystem breakdown" in text
        assert "scheduler.online" in text
        assert "hottest spans" in text
        path = tmp_path / "trace.jsonl"
        lines = x2_report.write_jsonl(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == lines
        assert rows[0]["experiment"] == "X2"
        assert rows[0]["spans_recorded"] == len(rows) - 1
        for row in rows[1:]:
            assert row["end"] >= row["start"]


class TestCli:
    def test_trace_command_end_to_end(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["trace", "X7", "--out-dir", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "per-subsystem breakdown" in printed
        assert (tmp_path / "trace.jsonl").exists()
        last = printed.strip().splitlines()[-1]
        record = json.loads(last)
        assert record["command"] == "trace"
        assert record["experiment"] == "X7"

    def test_trace_without_experiment_lists_choices(self, capsys):
        from repro.__main__ import main

        assert main(["trace"]) == 2
        assert "traceable experiments" in capsys.readouterr().out
