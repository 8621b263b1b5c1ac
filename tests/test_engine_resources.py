"""Tests for Resource."""

import pytest

from repro.engine import Resource, Simulator
from repro.errors import SimulationError


class TestResource:
    def test_acquire_within_capacity_is_immediate(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        grants = []

        def proc(sim):
            yield res.acquire()
            grants.append(sim.now)

        sim.spawn(proc(sim))
        sim.spawn(proc(sim))
        sim.run()
        assert grants == [0.0, 0.0]
        assert res.in_use == 2

    def test_queueing_beyond_capacity(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def holder(sim):
            yield res.acquire()
            log.append(("hold", sim.now))
            yield sim.timeout(5.0)
            res.release()

        def waiter(sim):
            yield sim.timeout(1.0)
            yield res.acquire()
            log.append(("grant", sim.now))
            res.release()

        sim.spawn(holder(sim))
        sim.spawn(waiter(sim))
        sim.run()
        assert log == [("hold", 0.0), ("grant", 5.0)]

    def test_fifo_grant_order(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def holder(sim):
            yield res.acquire()
            yield sim.timeout(1.0)
            res.release()

        def waiter(sim, tag, arrive):
            yield sim.timeout(arrive)
            yield res.acquire()
            order.append(tag)
            res.release()

        sim.spawn(holder(sim))
        sim.spawn(waiter(sim, "first", 0.1))
        sim.spawn(waiter(sim, "second", 0.2))
        sim.spawn(waiter(sim, "third", 0.3))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_bad_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)

    def test_utilization_tracks_busy_time(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def proc(sim):
            yield res.acquire()
            yield sim.timeout(4.0)
            res.release()
            yield sim.timeout(4.0)

        sim.spawn(proc(sim))
        sim.run()
        # Busy 4 of 8 seconds.
        assert res.utilization() == pytest.approx(0.5)

    def test_queue_length(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def holder(sim):
            yield res.acquire()
            yield sim.timeout(10.0)
            res.release()

        def waiter(sim):
            yield res.acquire()
            res.release()

        sim.spawn(holder(sim))
        sim.spawn(waiter(sim))
        sim.spawn(waiter(sim))
        sim.run(until=5.0)
        assert res.queue_length == 2
