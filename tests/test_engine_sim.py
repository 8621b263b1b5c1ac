"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.engine import Simulator
from repro.errors import SimulationError


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start(self):
        assert Simulator(start=10.0).now == 10.0

    def test_run_empty_queue_keeps_time(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_run_until_advances_clock_even_when_idle(self):
        sim = Simulator()
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0

    def test_run_until_in_the_past_keeps_the_clock(self):
        sim = Simulator(start=10.0)
        sim.timeout(1.0)
        assert sim.run(until=5.0) == 10.0
        assert sim.peek() == 11.0

    def test_lone_timeout_waiter_dispatches_inline_under_until(self):
        # One dispatch loop: the lone-waiter rule holds under a horizon
        # too, so the callback runs without a calendar entry of its own,
        # and the entry beyond the horizon stays pending.
        sim = Simulator()
        seen = []
        sim.timeout(1.0).add_callback(lambda _evt: seen.append(sim.now))
        later = sim.timeout(10.0)
        assert sim.run(until=5.0) == 5.0
        assert seen == [1.0]
        assert sim.events_processed == 1
        assert sim.peek() == 10.0 and not later.triggered


class TestTimeout:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        seen = []

        def proc(sim):
            yield sim.timeout(3.5)
            seen.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        assert seen == [3.5]

    def test_timeout_carries_value(self):
        sim = Simulator()
        got = []

        def proc(sim):
            value = yield sim.timeout(1.0, value="payload")
            got.append(value)

        sim.spawn(proc(sim))
        sim.run()
        assert got == ["payload"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_at_current_time(self):
        sim = Simulator()
        seen = []

        def proc(sim):
            yield sim.timeout(0.0)
            seen.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        assert seen == [0.0]


class TestOrdering:
    def test_fifo_tiebreak_at_same_time(self):
        sim = Simulator()
        order = []

        def proc(sim, tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.spawn(proc(sim, tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_time_ordering(self):
        sim = Simulator()
        order = []

        def proc(sim, tag, delay):
            yield sim.timeout(delay)
            order.append((sim.now, tag))

        sim.spawn(proc(sim, "late", 5.0))
        sim.spawn(proc(sim, "early", 1.0))
        sim.spawn(proc(sim, "mid", 3.0))
        sim.run()
        assert order == [(1.0, "early"), (3.0, "mid"), (5.0, "late")]

    def test_run_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []

        def proc(sim):
            yield sim.timeout(10.0)
            fired.append(True)

        sim.spawn(proc(sim))
        sim.run(until=5.0)
        assert not fired
        assert sim.now == 5.0
        sim.run()
        assert fired == [True]


class TestProcessComposition:
    def test_process_waits_on_child_return_value(self):
        sim = Simulator()
        results = []

        def child(sim):
            yield sim.timeout(2.0)
            return 42

        def parent(sim):
            value = yield sim.spawn(child(sim))
            results.append((sim.now, value))

        sim.spawn(parent(sim))
        sim.run()
        assert results == [(2.0, 42)]

class TestEvents:
    def test_manual_event_succeed(self):
        sim = Simulator()
        results = []
        gate = sim.event()

        def waiter(sim):
            value = yield gate
            results.append((sim.now, value))

        def firer(sim):
            yield sim.timeout(7.0)
            gate.succeed("go")

        sim.spawn(waiter(sim))
        sim.spawn(firer(sim))
        sim.run()
        assert results == [(7.0, "go")]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        evt = sim.event()
        evt.succeed(1)
        with pytest.raises(SimulationError):
            evt.succeed(2)

    def test_event_failure_raises_in_waiter(self):
        sim = Simulator()
        caught = []
        gate = sim.event()

        def waiter(sim):
            try:
                yield gate
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.spawn(waiter(sim))
        gate.fail(RuntimeError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_callback_on_already_fired_event(self):
        sim = Simulator()
        seen = []
        evt = sim.event()
        evt.succeed("early")
        evt.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["early"]

    def test_yielding_non_event_is_an_error(self):
        sim = Simulator()

        def bad(sim):
            yield 42

        sim.spawn(bad(sim))
        with pytest.raises(SimulationError):
            sim.run()


class TestSchedulingGuards:
    def test_cannot_schedule_into_past(self):
        sim = Simulator(start=10.0)
        with pytest.raises(SimulationError):
            sim._schedule_at(5.0, lambda: None)

    @pytest.mark.parametrize("schedule", [
        lambda sim: sim.timeout(float("nan")),
        lambda sim: sim._schedule_at(float("nan"), lambda: None),
        lambda sim: sim.schedule_batch([float("nan")], lambda _: None),
    ], ids=["timeout", "schedule_at", "schedule_batch"])
    def test_nan_time_rejected(self, schedule):
        with pytest.raises(SimulationError):
            schedule(Simulator())

    def test_peek_reports_next_event_time(self):
        sim = Simulator()
        assert sim.peek() is None
        sim.timeout(3.0)
        assert sim.peek() == 3.0

    def test_events_processed_counter(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.spawn(proc(sim))
        sim.run()
        assert sim.events_processed > 0
