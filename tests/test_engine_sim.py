"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.engine import Interrupt, Simulator
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

    def test_all_of_waits_for_slowest(self):
        sim = Simulator()
        results = []

        def parent(sim):
            values = yield sim.all_of(
                [sim.timeout(1.0, "a"), sim.timeout(4.0, "b"), sim.timeout(2.0, "c")]
            )
            results.append((sim.now, values))

        sim.spawn(parent(sim))
        sim.run()
        assert results == [(4.0, ["a", "b", "c"])]

    def test_all_of_empty_fires_immediately(self):
        sim = Simulator()
        results = []

        def parent(sim):
            values = yield sim.all_of([])
            results.append((sim.now, values))

        sim.spawn(parent(sim))
        sim.run()
        assert results == [(0.0, [])]

    def test_any_of_returns_winner(self):
        sim = Simulator()
        results = []

        def parent(sim):
            winner = yield sim.any_of([sim.timeout(3.0, "slow"), sim.timeout(1.0, "fast")])
            results.append((sim.now, winner))

        sim.spawn(parent(sim))
        sim.run()
        assert results == [(1.0, (1, "fast"))]

    def test_any_of_empty_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.any_of([])


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


class TestInterrupt:
    def test_interrupt_delivers_cause(self):
        sim = Simulator()
        log = []

        def victim(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt as intr:
                log.append((sim.now, intr.cause))

        def attacker(sim, handle):
            yield sim.timeout(2.0)
            handle.interrupt("preempted")

        handle = sim.spawn(victim(sim))
        sim.spawn(attacker(sim, handle))
        sim.run()
        assert log == [(2.0, "preempted")]

    def test_interrupt_after_completion_is_noop(self):
        sim = Simulator()

        def quick(sim):
            yield sim.timeout(1.0)

        handle = sim.spawn(quick(sim))
        sim.run()
        handle.interrupt("too late")
        sim.run()  # must not raise
        assert handle.triggered

    def test_unhandled_interrupt_terminates_process(self):
        sim = Simulator()
        after = []

        def victim(sim):
            yield sim.timeout(100.0)
            after.append("unreachable")

        def attacker(sim, handle):
            yield sim.timeout(1.0)
            handle.interrupt()

        handle = sim.spawn(victim(sim))
        sim.spawn(attacker(sim, handle))
        sim.run()
        assert handle.triggered
        assert not after


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
