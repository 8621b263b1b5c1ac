"""Tests for the observability layer and the engine correctness fixes.

The three regression classes (creation-relative utilization, dead-waiter
pruning, process-failure wrapping) all fail on the pre-observability
kernel; they pin the bugfixes that shipped with the tracing layer.
"""

import json

import pytest

from repro.engine import (
    Counter,
    Gauge,
    Histogram,
    Observability,
    Registry,
    Resource,
    Simulator,
    SpanLog,
    with_deadline,
)
from repro.errors import DeadlineExceeded, ProcessFailure, SimulationError


class TestUtilizationFromCreation:
    """Regression: utilization divided by absolute ``sim.now``."""

    def test_resource_created_mid_run_uses_own_elapsed_time(self):
        sim = Simulator()
        seen = []

        def proc(sim):
            yield sim.timeout(10.0)
            pool = Resource(sim, capacity=1)  # born at t=10
            yield pool.acquire()
            yield sim.timeout(5.0)
            pool.release()
            # Busy 5 of the 5 units since creation: fully utilized,
            # not 5/15 as the absolute-clock division reported.
            seen.append(pool.utilization())

        sim.spawn(proc(sim))
        sim.run()
        assert seen == [pytest.approx(1.0)]

    def test_resource_created_at_origin_unchanged(self):
        sim = Simulator()
        pool = Resource(sim, capacity=2)
        seen = []

        def proc(sim):
            yield pool.acquire()
            yield sim.timeout(4.0)
            pool.release()
            seen.append(pool.utilization())

        sim.spawn(proc(sim))
        sim.run()
        assert seen == [pytest.approx(0.5)]  # 1 of 2 servers for all 4s


class TestDeadWaiterPruning:
    """Regression: a freed server handed to a waiter that gave up leaked."""

    def test_interrupted_waiter_does_not_leak_capacity(self):
        sim = Simulator()
        pool = Resource(sim, capacity=1)
        progress = []

        def holder(sim):
            yield pool.acquire()
            yield sim.timeout(10.0)
            pool.release()

        def impatient(sim):
            try:
                # The deadline cancels the queued acquire when it expires.
                yield with_deadline(sim, pool.acquire(), 5.0)
                progress.append("impatient-acquired")
                pool.release()
            except DeadlineExceeded:
                progress.append("impatient-gave-up")

        def patient(sim):
            yield sim.timeout(5.0)
            yield pool.acquire()
            progress.append(("patient-acquired", sim.now))
            pool.release()

        sim.spawn(holder(sim))
        sim.spawn(impatient(sim))
        sim.spawn(patient(sim))
        sim.run(until=100.0)
        # Pre-fix the freed server went to the dead waiter and ``patient``
        # deadlocked forever; now it is granted at t=10.
        assert ("patient-acquired", 10.0) in progress
        assert "impatient-gave-up" in progress
        assert "impatient-acquired" not in progress
        assert pool.in_use == 0

    def test_queue_length_ignores_cancelled_waiters(self):
        sim = Simulator()
        pool = Resource(sim, capacity=1)
        pool.acquire()
        waiting = pool.acquire()
        assert pool.queue_length == 1
        waiting.cancel()
        assert pool.queue_length == 0


class TestProcessFailureWrapping:
    """Regression: raw exceptions escaped ``Simulator.run`` anonymously."""

    def test_escaping_exception_wrapped_with_context(self):
        sim = Simulator()

        def broken(sim):
            yield sim.timeout(3.0)
            raise KeyError("missing")

        sim.spawn(broken(sim), name="ingest")
        with pytest.raises(ProcessFailure) as excinfo:
            sim.run()
        failure = excinfo.value
        assert failure.process_name == "ingest"
        assert failure.sim_time == pytest.approx(3.0)
        assert isinstance(failure.__cause__, KeyError)
        assert isinstance(failure, SimulationError)


class TestSpans:
    def test_nested_spans_track_parents(self):
        obs = Observability()
        sim = Simulator(observability=obs)

        def proc(sim):
            with sim.span("outer", subsystem="demo"):
                yield sim.timeout(1.0)
                with sim.span("inner", subsystem="demo"):
                    yield sim.timeout(2.0)

        sim.spawn(proc(sim))
        sim.run()
        spans = {s.name: s for s in obs.spans.spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].duration == pytest.approx(3.0)
        assert spans["inner"].duration == pytest.approx(2.0)

    def test_interleaved_processes_keep_separate_stacks(self):
        obs = Observability()
        sim = Simulator(observability=obs)

        def worker(sim, label, delay):
            with sim.span(f"work.{label}"):
                yield sim.timeout(delay)
                with sim.span(f"sub.{label}"):
                    yield sim.timeout(delay)

        sim.spawn(worker(sim, "a", 1.0))
        sim.spawn(worker(sim, "b", 1.5))
        sim.run()
        spans = {s.name: s for s in obs.spans.spans()}
        assert spans["sub.a"].parent_id == spans["work.a"].span_id
        assert spans["sub.b"].parent_id == spans["work.b"].span_id

    def test_span_without_observability_is_noop(self):
        sim = Simulator()
        ran = []

        def proc(sim):
            with sim.span("ignored", any_tag=1):
                yield sim.timeout(1.0)
                ran.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        assert ran == [1.0]

    def test_ring_buffer_drops_oldest(self):
        log = SpanLog(capacity=3)
        for i in range(5):
            log.record(f"s{i}", float(i), float(i) + 0.5)
        assert len(log) == 3
        assert log.dropped == 2
        assert [s.name for s in log.spans()] == ["s2", "s3", "s4"]

    def test_span_error_tagging(self):
        obs = Observability()
        sim = Simulator(observability=obs)

        def proc(sim):
            with sim.span("failing"):
                yield sim.timeout(1.0)
                raise RuntimeError("inside span")

        sim.spawn(proc(sim))
        with pytest.raises(ProcessFailure):
            sim.run()
        # The span closes (via __exit__) and carries the error tag.
        span = obs.spans.spans()[0]
        assert span.name == "failing"
        assert span.tags["error"] == "RuntimeError"
        assert obs.errors and obs.errors[0][0]

    def test_export_jsonl_round_trips(self, tmp_path):
        log = SpanLog()
        log.record("a", 0.0, 1.0, tags={"k": "v"})
        log.record("b", 1.0, 4.0)
        path = tmp_path / "trace.jsonl"
        lines = log.export_jsonl(str(path), header={"experiment": "T"})
        assert lines == 3
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0] == {"experiment": "T"}
        assert rows[1]["span"] == "a" and rows[1]["tags"] == {"k": "v"}
        assert rows[2]["end"] == pytest.approx(4.0)

    def test_hottest_ranks_by_total_time(self):
        log = SpanLog()
        log.record("cheap", 0.0, 0.1)
        log.record("hot", 0.0, 5.0)
        log.record("hot", 5.0, 9.0)
        assert log.hottest(2)[0] == ("hot", 2, pytest.approx(9.0))


class TestMetrics:
    def test_counter_monotone(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_time_weighted_mean(self):
        gauge = Gauge("queue")
        gauge.set(0.0, 0.0)
        gauge.set(2.0, 10.0)
        assert gauge.time_weighted_mean(4.0) == pytest.approx(5.0)

    def test_gauge_single_sample_mean_is_value(self):
        gauge = Gauge("g")
        gauge.set(3.0, 7.0)
        assert gauge.time_weighted_mean() == pytest.approx(7.0)

    def test_gauge_rejects_time_travel(self):
        gauge = Gauge("g")
        gauge.set(2.0, 1.0)
        with pytest.raises(ValueError):
            gauge.set(1.0, 1.0)

    def test_histogram_stats(self):
        histogram = Histogram("latency")
        for value in (0.001, 0.002, 0.004, 0.1):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean() == pytest.approx(0.02675)
        assert histogram.vmin == pytest.approx(0.001)
        assert histogram.percentile(100) == pytest.approx(0.1)
        # Bucket resolution: within one log-bucket (~78%) of exact.
        assert 0.001 <= histogram.p50() <= 0.004

    def test_histogram_percentiles_clamped_to_observed_range(self):
        histogram = Histogram("h")
        histogram.observe(5.0)
        assert histogram.p50() == pytest.approx(5.0)
        assert histogram.p99() == pytest.approx(5.0)

    def test_registry_get_or_create_and_snapshot(self):
        registry = Registry()
        registry.counter("events").inc(3)
        assert registry.counter("events").value == 3.0
        registry.gauge("depth").set(0.0, 2.0)
        registry.gauge("depth").set(4.0, 0.0)
        registry.histogram("lat").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"events": 3.0}
        assert snapshot["gauges"]["depth"]["max"] == 2.0
        assert snapshot["histograms"]["lat"]["count"] == 1
        # Empty instruments are omitted, not rendered as zeros.
        registry.gauge("silent")
        assert "silent" not in registry.snapshot()["gauges"]


class TestEngineIntegration:
    def test_named_resource_publishes_gauges(self):
        obs = Observability()
        sim = Simulator(observability=obs)
        pool = Resource(sim, capacity=2, name="pool")

        def proc(sim):
            yield pool.acquire()
            yield sim.timeout(2.0)
            pool.release()

        sim.spawn(proc(sim))
        sim.run()
        gauges = obs.registry.snapshot()["gauges"]
        assert gauges["pool.in_use"]["max"] == 1.0
        assert gauges["pool.in_use"]["last"] == 0.0
        assert "pool.utilization" in gauges

    def test_unnamed_resource_publishes_nothing(self):
        obs = Observability()
        sim = Simulator(observability=obs)
        pool = Resource(sim, capacity=1)

        def proc(sim):
            yield pool.acquire()
            yield sim.timeout(1.0)
            pool.release()

        sim.spawn(proc(sim))
        sim.run()
        assert obs.registry.snapshot()["gauges"] == {}

    def test_process_stats_accumulate(self):
        obs = Observability()
        sim = Simulator(observability=obs)

        def worker(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)

        for _ in range(3):
            sim.spawn(worker(sim), name="worker")
        sim.run()
        stats = obs.process_stats["worker"]
        assert stats["spawns"] == 3
        assert stats["completions"] == 3
        assert stats["sim_time"] == pytest.approx(9.0)

    def test_snapshot_includes_engine_totals(self):
        obs = Observability()
        sim = Simulator(observability=obs)

        def proc(sim):
            with sim.span("step", subsystem="test"):
                yield sim.timeout(1.0)

        sim.spawn(proc(sim), name="p")
        sim.run()
        snapshot = obs.snapshot()
        assert snapshot["events_processed"] == sim.events_processed
        assert snapshot["sim_time"] == pytest.approx(1.0)
        assert snapshot["spans"]["recorded"] == 1
        assert snapshot["steps_by_subsystem"]["test"] >= 1


class TestAmbientScope:
    @staticmethod
    def _run_one(clock_s):
        sim = Simulator()
        pool = Resource(sim, capacity=1, name="pool")

        def proc(sim):
            with sim.span("hold", subsystem="test"):
                yield pool.acquire()
                yield sim.timeout(clock_s)
                pool.release()

        sim.spawn(proc(sim), name="p")
        sim.run()
        return sim

    def test_simulators_in_one_scope_share_one_timeline(self):
        with Observability() as obs:
            first = self._run_one(3.0)
            second = self._run_one(2.0)
        assert first.observability is obs and second.observability is obs
        snapshot = obs.snapshot()
        assert snapshot["sim_time"] == first.now + second.now == 5.0
        assert snapshot["events_processed"] == (
            first.events_processed + second.events_processed
        )
        # The second run's gauge samples follow the first run's, in order.
        gauges = obs.registry.gauges
        assert gauges["pool.in_use"].last_time == 5.0
        assert snapshot["gauges"]["pool.in_use"]["mean"] == pytest.approx(1.0)
        spans = [(s.start, s.end) for s in obs.spans.spans()]
        assert spans == [(0.0, 3.0), (3.0, 5.0)]

    def test_scope_ends_with_the_with_block(self):
        with Observability() as obs:
            assert Observability.current() is obs
        assert Observability.current() is None
        assert Simulator().observability is None

    def test_explicit_observability_wins_over_the_scope(self):
        explicit = Observability()
        with Observability():
            sim = Simulator(observability=explicit)
        assert sim.observability is explicit
