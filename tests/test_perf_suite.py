"""Tests for the pinned perf microbench harness (`repro.perf`).

Timing on shared CI hardware is noisy, so these tests never assert on
absolute times or achieved speedups -- they pin the harness mechanics:
result schema, checksum verification, baseline regression detection and
the CLI wiring. The benches themselves run in ``--quick`` mode (about
10x smaller workloads) with a single round.

The same quick run also pins every bench's candidate-side checksum: the
SHA-256 of its canonical encoding must equal the committed table in
``golden/perf_checksums.json``. ``_verify_checksums`` only catches a
candidate that diverges from its reference; the table also catches a
change that moves both sides the same way. To print the current table::

    PYTHONPATH=src python tests/test_perf_suite.py
"""

import copy
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.perf
from repro.errors import ModelError
from repro.perf import (
    REGRESSION_TOLERANCE,
    BenchSpec,
    _measure,
    _verify_checksums,
    build_specs,
    check_against_baseline,
    render_results,
    run_suites,
    write_results,
)

EXPECTED_BENCHES = {
    "engine": {
        "event_churn", "timeout_churn", "resource_contention",
        "e2_end_to_end",
    },
    "network": {
        "flow_solver_500", "flow_solver_scaling", "switch_failure_impact",
        "incremental_flow_repair",
    },
    "models": {
        "mc_commodity_year", "roi_npv_sweep", "soc_sip_unit_costs",
        "market_concentration", "adoption_paths", "survey_theme_stats",
    },
    "sharded": {
        "sharded_fabric_4w", "sharded_window_protocol",
    },
    "traffic": {
        "traffic_arrivals_1m", "traffic_sessions_clients",
        "bulk_injection",
    },
}


CHECKSUM_TABLE = Path(__file__).parent / "golden" / "perf_checksums.json"


def _canonical(value) -> str:
    """Exact text of a checksum: every float digit and every byte.

    Only plain Python values are accepted (a numpy scalar's repr is not
    stable across numpy versions); dict items are sorted by key.
    """
    kind = type(value)
    if value is None or kind in (bool, int, float, str, bytes):
        return repr(value)
    if kind in (tuple, list):
        body = ",".join(_canonical(item) for item in value)
        return f"{kind.__name__}({body})"
    if kind is dict:
        items = sorted(
            (_canonical(k), _canonical(v)) for k, v in value.items()
        )
        return "dict(" + ",".join(f"{k}:{v}" for k, v in items) + ")"
    raise TypeError(f"no canonical encoding for {kind.__name__}")


def quick_run():
    """One seed-0 quick round: ``(suites, {bench: candidate checksum})``.

    The checksums are captured where the harness verifies them, so the
    digest table costs no extra bench runs.
    """
    checksums = {}
    verify = repro.perf._verify_checksums

    def record(spec, candidate, reference):
        checksums[spec.name] = candidate
        verify(spec, candidate, reference)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.perf, "_verify_checksums", record)
        suites = run_suites(rounds=1, quick=True, seed=0)
    return suites, checksums


def checksum_digests(checksums) -> dict:
    return {
        name: hashlib.sha256(_canonical(value).encode()).hexdigest()
        for name, value in sorted(checksums.items())
    }


@pytest.fixture(scope="module")
def quick_results():
    return quick_run()


@pytest.fixture(scope="module")
def quick_suites(quick_results):
    return quick_results[0]


class TestChecksumDigests:
    def test_every_candidate_checksum_matches_its_digest(
        self, quick_results
    ):
        expected = json.loads(CHECKSUM_TABLE.read_text())
        actual = checksum_digests(quick_results[1])
        assert sorted(expected) == sorted(
            name for names in EXPECTED_BENCHES.values() for name in names
        )
        moved = sorted(
            name for name, digest in expected.items()
            if actual.get(name) != digest
        )
        assert not moved, f"checksums moved: {moved}"

    def test_canonical_encoding_is_exact(self):
        assert _canonical(0.1) != _canonical(0.1 + 2 ** -56)
        assert _canonical(b"\x00\x01") != _canonical(b"\x00\x02")
        assert _canonical((1, 2.0)) != _canonical([1, 2.0])
        assert _canonical({2: 1.0, 1: 0.5}) == _canonical({1: 0.5, 2: 1.0})
        with pytest.raises(TypeError):
            _canonical(np.float64(1.0))


class TestSuiteSchema:
    def test_suites_and_benches_present(self, quick_suites):
        assert set(quick_suites) == set(EXPECTED_BENCHES)
        for suite, names in EXPECTED_BENCHES.items():
            assert set(quick_suites[suite]["benches"]) == names

    def test_entry_schema(self, quick_suites):
        for results in quick_suites.values():
            for entry in results["benches"].values():
                assert entry["reference_median_s"] > 0
                assert entry["candidate_median_s"] > 0
                assert entry["speedup"] > 0
                assert entry["rounds"] == 1

    def test_quick_mode_has_no_pinned_floors(self, quick_suites):
        # Tiny workloads are noise-dominated; floors only apply to the
        # full-size suite.
        for results in quick_suites.values():
            for entry in results["benches"].values():
                assert "min_speedup" not in entry

    def test_full_specs_pin_headline_targets(self):
        targets = {
            spec.name: spec.target_speedup for spec in build_specs()
        }
        assert targets["event_churn"] == 3.0
        assert targets["flow_solver_500"] == 5.0
        assert targets["mc_commodity_year"] == 10.0
        assert targets["roi_npv_sweep"] == 10.0
        assert targets["survey_theme_stats"] == 5.0
        assert targets["incremental_flow_repair"] == 10.0
        assert targets["sharded_fabric_4w"] == 3.0
        assert targets["traffic_arrivals_1m"] == 50.0
        assert targets["traffic_sessions_clients"] == 10.0
        assert targets["bulk_injection"] == 2.0

    def test_sharded_bench_declares_workers(self):
        specs = {spec.name: spec for spec in build_specs()}
        assert specs["sharded_fabric_4w"].parallel_workers == 4
        # The protocol-overhead bench is single-process by design.
        assert specs["sharded_window_protocol"].parallel_workers == 0

    def test_parallel_bench_records_cores(self, quick_suites):
        entry = quick_suites["sharded"]["benches"]["sharded_fabric_4w"]
        assert entry["parallel_workers"] >= 2
        assert entry["cores"] >= 1

    def test_rejects_bad_rounds(self):
        with pytest.raises(ModelError):
            run_suites(rounds=0, quick=True)


class TestSuiteSelection:
    def test_single_suite_runs_only_that_suite(self):
        results = run_suites(rounds=1, quick=True, suites=["models"])
        assert set(results) == {"models"}
        assert set(results["models"]["benches"]) == EXPECTED_BENCHES["models"]

    def test_unknown_suite_raises(self):
        with pytest.raises(ModelError, match="unknown perf suite"):
            run_suites(rounds=1, quick=True, suites=["modles"])

    def test_unknown_suite_message_lists_valid_ids(self):
        with pytest.raises(ModelError, match="engine, models, network"):
            run_suites(rounds=1, quick=True, suites=["bogus"])

    def test_cli_unknown_suite_exits_2(self, capsys):
        from repro.perf import main

        rc = main(["bogus", "--quick", "--rounds", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown perf suite" in err and "bogus" in err

    def test_render_mentions_every_bench(self, quick_suites):
        text = render_results(quick_suites)
        for names in EXPECTED_BENCHES.values():
            for name in names:
                assert name in text

    def test_render_marks_parallel_target_unverified_below_workers(self):
        entry = {
            "reference_median_s": 2.0, "candidate_median_s": 1.0,
            "speedup": 2.0, "target_speedup": 3.0, "min_speedup": 2.25,
            "parallel_workers": 4, "cores": 2,
        }
        suites = {"sharded": {"rounds": 1, "benches": {"par": entry}}}
        assert "target unverified: 2 cores < 4 workers" in render_results(
            suites
        )
        entry["cores"] = 4
        assert "unverified" not in render_results(suites)


class TestWriteAndCheck:
    def test_write_results_paths(self, quick_suites, tmp_path):
        paths = write_results(quick_suites, tmp_path)
        assert [p.name for p in paths] == [
            "BENCH_engine.json", "BENCH_models.json", "BENCH_network.json",
            "BENCH_sharded.json", "BENCH_traffic.json",
        ]
        loaded = json.loads(paths[0].read_text())
        assert loaded["suite"] == "engine"

    def test_self_check_passes(self, quick_suites, tmp_path):
        write_results(quick_suites, tmp_path)
        assert check_against_baseline(quick_suites, tmp_path) == []

    def test_regression_detected(self, quick_suites, tmp_path):
        inflated = copy.deepcopy(quick_suites)
        for results in inflated.values():
            for entry in results["benches"].values():
                entry["speedup"] = entry["speedup"] * 100.0
        write_results(inflated, tmp_path)
        failures = check_against_baseline(quick_suites, tmp_path)
        assert len(failures) == sum(len(v) for v in EXPECTED_BENCHES.values())
        assert all("below floor" in f for f in failures)

    def test_within_tolerance_passes(self, quick_suites, tmp_path):
        slightly_better = copy.deepcopy(quick_suites)
        margin = 1.0 + REGRESSION_TOLERANCE / 2
        for results in slightly_better.values():
            for entry in results["benches"].values():
                entry["speedup"] = entry["speedup"] * margin
                entry.pop("min_speedup", None)
                entry.pop("target_speedup", None)
        write_results(slightly_better, tmp_path)
        assert check_against_baseline(quick_suites, tmp_path) == []

    def test_missing_baseline_reported(self, quick_suites, tmp_path):
        failures = check_against_baseline(quick_suites, tmp_path / "absent")
        assert failures and all("no baseline" in f for f in failures)

    def test_missing_bench_reported(self, quick_suites, tmp_path):
        write_results(quick_suites, tmp_path)
        pruned = copy.deepcopy(quick_suites)
        del pruned["engine"]["benches"]["event_churn"]
        failures = check_against_baseline(pruned, tmp_path)
        assert failures == ["event_churn: missing from current run"]

    def test_pinned_floor_beats_loose_baseline(self, quick_suites, tmp_path):
        # A baseline recorded on a slow machine must not weaken the
        # pinned floor: min_speedup still applies.
        floored = copy.deepcopy(quick_suites)
        entry = floored["engine"]["benches"]["event_churn"]
        entry["speedup"] = 0.1
        entry["min_speedup"] = 1e9
        write_results(floored, tmp_path)
        failures = check_against_baseline(quick_suites, tmp_path)
        assert any("event_churn" in f for f in failures)


def _parallel_suite(speedup, cores, min_speedup=2.25, workers=4):
    return {
        "sharded": {
            "suite": "sharded", "rounds": 1, "quick": False,
            "benches": {
                "sharded_fabric_4w": {
                    "description": "x", "rounds": 1,
                    "reference_median_s": 1.0,
                    "candidate_median_s": 1.0 / speedup,
                    "speedup": speedup,
                    "target_speedup": 3.0,
                    "min_speedup": min_speedup,
                    "parallel_workers": workers,
                    "cores": cores,
                },
            },
        },
    }


class TestParallelAwareGate:
    """A 4-worker ratio target only binds on machines with 4+ cores."""

    def test_serial_run_vs_parallel_baseline_is_skipped(self, tmp_path):
        # Baseline from a 4-core CI runner, current run on a 1-core
        # box: the ratio is unreachable, so the bench is not gated.
        write_results(_parallel_suite(3.2, cores=4), tmp_path)
        current = _parallel_suite(0.5, cores=1)
        assert check_against_baseline(current, tmp_path) == []

    def test_parallel_run_vs_serial_baseline_uses_pinned_floor(
        self, tmp_path
    ):
        # Baseline from a 1-core dev box (speedup ~0.5), current run on
        # 4 cores: the relative ratio is meaningless, the pinned floor
        # is what binds -- and it still trips.
        write_results(_parallel_suite(0.5, cores=1), tmp_path)
        passing = _parallel_suite(2.5, cores=4)
        assert check_against_baseline(passing, tmp_path) == []
        failing = _parallel_suite(1.5, cores=4)
        failures = check_against_baseline(failing, tmp_path)
        assert failures and "sharded_fabric_4w" in failures[0]

    def test_parallel_vs_parallel_keeps_ratio_and_floor(self, tmp_path):
        write_results(_parallel_suite(4.0, cores=4), tmp_path)
        # Within tolerance of the 4.0x baseline and above the floor.
        assert check_against_baseline(
            _parallel_suite(3.1, cores=4), tmp_path
        ) == []
        # Above the floor but >25% below the baseline ratio: regression.
        failures = check_against_baseline(
            _parallel_suite(2.6, cores=4), tmp_path
        )
        assert failures and "below floor" in failures[0]

    def test_serial_vs_serial_compares_ratio_without_floor(self, tmp_path):
        # Two 1-core machines: the ratio comparison still applies, but
        # the parallel floor (2.25x) must not -- 0.5x vs 0.5x is fine.
        write_results(_parallel_suite(0.5, cores=1), tmp_path)
        assert check_against_baseline(
            _parallel_suite(0.45, cores=1), tmp_path
        ) == []


class TestListingAndHistory:
    def test_listing_names_every_bench_and_floor(self):
        from repro.perf import render_spec_listing

        text = render_spec_listing()
        for names in EXPECTED_BENCHES.values():
            for name in names:
                assert name in text
        assert "floor 2.25x" in text
        assert "4 workers" in text

    def test_listing_shows_baseline_path_per_suite(self):
        from repro.perf import render_spec_listing

        text = render_spec_listing()
        for suite in EXPECTED_BENCHES:
            assert f"BENCH_{suite}.json" in text
        # Committed baselines are flagged; anything else says MISSING.
        assert "committed" in text or "MISSING" in text

    def test_cli_list_exits_zero(self, capsys):
        from repro.perf import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "sharded_fabric_4w" in out and "event_churn" in out

    def test_cli_unknown_suite_prints_listing(self, capsys):
        from repro.perf import main

        assert main(["bogus", "--quick", "--rounds", "1"]) == 2
        err = capsys.readouterr().err
        assert "unknown perf suite" in err
        assert "sharded_fabric_4w" in err  # the listing rides along

    def test_append_history_schema(self, quick_suites, tmp_path):
        from repro.perf import append_history

        path = tmp_path / "BENCH_history.jsonl"
        append_history(quick_suites, path)
        append_history(quick_suites, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["quick"] is True
        assert set(record["speedups"]) == set(EXPECTED_BENCHES)
        for suite, names in EXPECTED_BENCHES.items():
            assert set(record["speedups"][suite]) == names
        assert "timestamp" in record and "git_rev" in record

    def test_cli_run_appends_history(self, tmp_path, capsys):
        from repro.perf import main

        history = tmp_path / "hist.jsonl"
        rc = main([
            "engine", "--quick", "--rounds", "1",
            "--out-dir", str(tmp_path),
            "--history-file", str(history),
        ])
        assert rc == 0
        record = json.loads(history.read_text().splitlines()[-1])
        assert "event_churn" in record["speedups"]["engine"]


class TestMeasure:
    """One timer: only the body runs between the two clock reads."""

    @staticmethod
    def _spec(clock, calls, body):
        def step(name, seconds, result):
            calls.append(name)
            clock[0] += seconds
            return result

        return BenchSpec(
            name="fake", suite="engine", description="",
            candidate="cand", reference="ref",
            setup=lambda impl, n: step(("setup", impl, n), 100.0, n),
            body=body,
            checksum=lambda n, out: step("checksum", 100.0, (n, out)),
            teardown=lambda n: step(("teardown", n), 100.0, None),
            size={"n": 3},
        )

    def test_times_only_the_body(self, monkeypatch):
        clock, calls = [0.0], []
        monkeypatch.setattr(repro.perf.time, "perf_counter",
                            lambda: clock[0])

        def body(impl, n):
            calls.append(("body", impl, n))
            clock[0] += 5.0
            return n * 2

        spec = self._spec(clock, calls, body)
        assert _measure(spec, spec.reference) == (5.0, (3, 6))
        assert calls == [
            ("setup", "ref", 3), ("body", "ref", 3), ("teardown", 3),
            "checksum",
        ]

    def test_teardown_runs_when_the_body_fails(self):
        calls = []

        def body(impl, n):
            raise ModelError("boom")

        spec = self._spec([0.0], calls, body)
        with pytest.raises(ModelError, match="boom"):
            _measure(spec, spec.candidate)
        assert calls == [("setup", "cand", 3), ("teardown", 3)]

    def test_floor_is_target_less_tolerance(self):
        spec = BenchSpec(
            name="fake", suite="engine", description="",
            candidate=None, reference=None, setup=lambda _impl: (),
        )
        assert spec.min_speedup is None
        assert replace(spec, target_speedup=3.0).min_speedup == 2.25


class TestChecksumVerification:
    @staticmethod
    def _spec(exact):
        return BenchSpec(
            name="fake", suite="engine", description="",
            candidate=None, reference=None, setup=lambda _impl: (),
            exact=exact,
        )

    def test_exact_divergence_raises(self):
        with pytest.raises(ModelError, match="diverged"):
            _verify_checksums(self._spec(True), (1.0, 2.0), (1.0, 2.5))

    def test_exact_match_passes(self):
        _verify_checksums(self._spec(True), (1.0, 2.0), (1.0, 2.0))

    def test_relative_tolerance(self):
        spec = self._spec(False)
        _verify_checksums(spec, (1.0,), (1.0 + 1e-12,))
        with pytest.raises(ModelError, match="diverged"):
            _verify_checksums(spec, (1.0,), (1.001,))

    def test_cardinality_mismatch(self):
        with pytest.raises(ModelError, match="cardinality"):
            _verify_checksums(self._spec(False), (1.0,), (1.0, 2.0))


if __name__ == "__main__":
    print(json.dumps(checksum_digests(quick_run()[1]), indent=2,
                     sort_keys=True))
