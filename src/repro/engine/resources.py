"""Shared-resource primitives for the simulation kernel.

Provides the classic trio used by queueing models:

- :class:`Resource` -- a counted server pool with a FIFO wait queue
  (e.g. CPU cores, FPGA slots).
- :class:`Container` -- a continuous quantity with put/get
  (e.g. buffer bytes, power budget).
- :class:`Store` -- a FIFO queue of Python objects
  (e.g. request queues between service stages).

All waiting is fair (FIFO) and deterministic. Waiters whose process was
interrupted are *cancelled* and pruned, so capacity (or items) never
leaks to a grant nobody will consume.

Giving a primitive a ``name`` makes it self-describing: when the owning
simulator has an attached
:class:`~repro.engine.observability.Observability`, every state change
publishes queue-length / occupancy / level gauges under that name.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

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

        Waiters whose event was cancelled (their process was interrupted
        while queued) are pruned instead of granted, so the server goes
        to a live waiter or back to the pool -- never into the void.
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


class Container:
    """A continuous quantity (bytes, joules, dollars) with blocking get.

    ``put`` never blocks unless a ``capacity`` ceiling is set; ``get``
    blocks until enough quantity is available. Waiters are served FIFO,
    and a large ``get`` at the head of the queue blocks smaller ones
    behind it (no overtaking), which keeps behaviour deterministic.
    """

    def __init__(
        self,
        sim: Simulator,
        initial: float = 0.0,
        capacity: Optional[float] = None,
        name: Optional[str] = None,
    ) -> None:
        if initial < 0:
            raise SimulationError(f"negative initial level: {initial}")
        if capacity is not None and initial > capacity:
            raise SimulationError("initial level exceeds capacity")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = float(initial)
        self._getters: Deque[tuple[float, Event]] = deque()
        self._putters: Deque[tuple[float, Event]] = deque()

    @property
    def level(self) -> float:
        """Quantity currently stored."""
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; fires when it fits under the capacity ceiling."""
        if amount < 0:
            raise SimulationError(f"negative put: {amount}")
        evt = Event(self.sim)
        self._putters.append((amount, evt))
        self._drain()
        return evt

    def get(self, amount: float) -> Event:
        """Remove ``amount``; fires when available."""
        if amount < 0:
            raise SimulationError(f"negative get: {amount}")
        evt = Event(self.sim)
        self._getters.append((amount, evt))
        self._drain()
        return evt

    def _publish(self) -> None:
        if self.name is None:
            return
        observability = self.sim.observability
        if observability is None:
            return
        now = observability.now
        registry = observability.registry
        registry.gauge(f"{self.name}.level").set(now, self._level)
        registry.gauge(f"{self.name}.waiting_get").set(
            now, float(len(self._getters))
        )
        registry.gauge(f"{self.name}.waiting_put").set(
            now, float(len(self._putters))
        )

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and self._putters[0][1]._cancelled:
                self._putters.popleft()
            if self._putters:
                amount, evt = self._putters[0]
                if self.capacity is None or self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    evt.succeed(amount)
                    progressed = True
            while self._getters and self._getters[0][1]._cancelled:
                self._getters.popleft()
            if self._getters:
                amount, evt = self._getters[0]
                if self._level >= amount:
                    self._getters.popleft()
                    self._level -= amount
                    evt.succeed(amount)
                    progressed = True
        if self.name is not None:
            self._publish()


class Store:
    """A FIFO queue of arbitrary items with blocking get.

    An optional ``capacity`` makes ``put`` block when full, modelling
    bounded buffers (backpressure).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Any, Event]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; fires once it is accepted into the buffer."""
        evt = Event(self.sim)
        self._putters.append((item, evt))
        self._drain()
        return evt

    def get(self) -> Event:
        """Dequeue the oldest item; fires with the item."""
        evt = Event(self.sim)
        self._getters.append(evt)
        self._drain()
        return evt

    def _publish(self) -> None:
        if self.name is None:
            return
        observability = self.sim.observability
        if observability is None:
            return
        now = observability.now
        registry = observability.registry
        registry.gauge(f"{self.name}.items").set(now, float(len(self._items)))
        registry.gauge(f"{self.name}.waiting_get").set(
            now, float(len(self._getters))
        )
        registry.gauge(f"{self.name}.waiting_put").set(
            now, float(len(self._putters))
        )

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Accept queued puts while there is room, skipping puts whose
            # producer abandoned them (the item must not enter the buffer).
            while self._putters and self._putters[0][1]._cancelled:
                self._putters.popleft()
            if self._putters and (
                self.capacity is None or len(self._items) < self.capacity
            ):
                item, evt = self._putters.popleft()
                self._items.append(item)
                evt.succeed(item)
                progressed = True
            # Serve queued gets while items exist, skipping dead getters
            # (an item granted to one would be lost forever).
            while self._getters and self._getters[0]._cancelled:
                self._getters.popleft()
            if self._getters and self._items:
                evt = self._getters.popleft()
                evt.succeed(self._items.popleft())
                progressed = True
        if self.name is not None:
            self._publish()
