"""The shared-resource primitive of the simulation kernel.

:class:`Resource` is a counted server pool with a FIFO wait queue
(e.g. CPU cores, FPGA slots), the one primitive the queueing models use.

All waiting is fair (FIFO) and deterministic. Waiters that gave up
(their event was *cancelled*) are pruned, so capacity never leaks to a
grant nobody will consume.

Giving a resource a ``name`` makes it self-describing: when the owning
simulator has an attached
:class:`~repro.engine.observability.Observability`, every state change
publishes queue-length / occupancy gauges under that name.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.engine.sim import Event, Simulator
from repro.errors import SimulationError


class Resource:
    """A pool of ``capacity`` identical servers with FIFO queueing.

    Usage from a process::

        grant = yield resource.acquire()
        ...                      # hold the resource
        resource.release()
    """

    def __init__(
        self, sim: Simulator, capacity: int = 1, name: Optional[str] = None
    ) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # Occupancy accounting for utilization metrics. A resource may be
        # created mid-run (dynamic allocation), so elapsed time is
        # measured from creation, not from t=0.
        self._created = sim.now
        self._busy_time = 0.0
        self._last_change = sim.now

    @property
    def in_use(self) -> int:
        """Number of servers currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of live (non-cancelled) acquire requests waiting."""
        return sum(1 for waiter in self._waiters if not waiter._cancelled)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def _publish(self) -> None:
        if self.name is None:
            return
        observability = self.sim.observability
        if observability is None:
            return
        now = observability.now
        registry = observability.registry
        registry.gauge(f"{self.name}.in_use").set(now, float(self._in_use))
        registry.gauge(f"{self.name}.queue_length").set(
            now, float(self.queue_length)
        )
        registry.gauge(f"{self.name}.utilization").set(now, self.utilization())

    def utilization(self) -> float:
        """Time-averaged fraction of capacity in use since *creation*."""
        self._account()
        elapsed = self.sim.now - self._created
        if elapsed <= 0:
            return 0.0
        return self._busy_time / (elapsed * self.capacity)

    def acquire(self) -> Event:
        """Request one server; the returned event fires when granted."""
        evt = Event(self.sim)
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            # Immediate grant: the event is brand new, so no callback is
            # registered and ``succeed``'s flush would have nothing to do.
            evt._triggered = True
            evt._value = self
        else:
            self._waiters.append(evt)
        if self.name is not None:
            self._publish()
        return evt

    def release(self) -> None:
        """Return one server to the pool, waking the next waiter if any.

        Waiters whose event was cancelled (they gave up while queued) are
        pruned instead of granted, so the server goes to a live waiter or
        back to the pool -- never into the void.
        """
        if self._in_use <= 0:
            raise SimulationError("release without matching acquire")
        self._account()
        while self._waiters and self._waiters[0]._cancelled:
            self._waiters.popleft()
        if self._waiters:
            # Hand the server directly to the next waiter; occupancy
            # stays constant.
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1
        if self.name is not None:
            self._publish()
