"""Tests for iterative caching and the CLI module."""

import pytest

from repro.__main__ import main
from repro.cluster import uniform_cluster
from repro.errors import PlanError
from repro.frameworks import (
    BatchExecutor,
    PartitionedDataset,
    Plan,
    caching_speedup,
    run_iterative,
)
from repro.network import leaf_spine
from repro.node import commodity_server, xeon_e5


def _executor():
    return BatchExecutor(
        uniform_cluster(leaf_spine(2, 2, 2),
                        lambda: commodity_server(xeon_e5()))
    )


def _dataset():
    return PartitionedDataset.from_records(list(range(5000)), 4)


def _base_plan():
    return Plan.source().map(lambda x: x * 2, block="feature-extract")


class TestIterative:
    def test_final_records_from_last_step(self):
        report = run_iterative(
            _executor(),
            _base_plan(),
            lambda i: Plan.source().map(lambda x: x + i),
            _dataset(),
            n_iterations=3,
        )
        # base doubles, last step (i=2) adds 2.
        assert sorted(report.final_records)[:3] == [2, 4, 6]
        assert len(report.iteration_times_s) == 3

    def test_cached_faster_than_uncached(self):
        result = caching_speedup(
            _executor(),
            _base_plan(),
            lambda i: Plan.source().map(lambda x: x),
            _dataset(),
            n_iterations=10,
        )
        assert result["speedup"] > 1.5
        assert result["cached_s"] < result["uncached_s"]

    def test_speedup_grows_with_iterations(self):
        executor = _executor()
        few = caching_speedup(
            executor, _base_plan(),
            lambda i: Plan.source().map(lambda x: x), _dataset(), 2,
        )
        many = caching_speedup(
            executor, _base_plan(),
            lambda i: Plan.source().map(lambda x: x), _dataset(), 20,
        )
        assert many["speedup"] > few["speedup"]

    def test_single_iteration_costs(self):
        report = run_iterative(
            _executor(), _base_plan(),
            lambda i: Plan.source().map(lambda x: x), _dataset(), 1,
        )
        assert report.total_time_s == pytest.approx(
            report.base_time_s + report.iteration_times_s[0]
        )

    def test_uncached_total_replays_base(self):
        report = run_iterative(
            _executor(), _base_plan(),
            lambda i: Plan.source().map(lambda x: x), _dataset(), 4,
            cache=False,
        )
        expected = sum(
            report.base_time_s + step for step in report.iteration_times_s
        )
        assert report.total_time_s == pytest.approx(expected)

    def test_zero_iterations_rejected(self):
        with pytest.raises(PlanError):
            run_iterative(
                _executor(), _base_plan(),
                lambda i: Plan.source().map(lambda x: x), _dataset(), 0,
            )


class TestCli:
    def test_summary(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "rethinkbig" in out
        assert "experiments: 34" in out

    def test_summary_json_line(self, capsys):
        import json

        assert main(["summary"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        record = json.loads(last)
        assert record["schema_version"] == "1.1"
        assert record["command"] == "summary"
        assert record["experiments"] == 34

    def test_findings(self, capsys):
        assert main(["findings"]) == 0
        out = capsys.readouterr().out
        assert "89 interviews" in out
        assert out.count("[HOLDS]") == 4

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "E2" in out and "X6" in out

    def test_roadmap(self, capsys):
        assert main(["roadmap"]) == 0
        out = capsys.readouterr().out
        assert "key findings hold: True" in out
        assert "funded under" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["dance"])
