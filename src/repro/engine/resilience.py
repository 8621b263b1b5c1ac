"""Resilience primitives: retry with backoff, deadlines, hedged requests.

The chaos experiments (X12, X17) need the classic tail-tolerance
mechanisms as first-class, composable engine constructs:

- :func:`retry_events` -- re-run a failing operation under a
  :class:`RetryPolicy` (exponential backoff, cap, deterministic
  jitter);
- :func:`with_deadline` -- wrap any :class:`~repro.engine.sim.Event`
  so the waiter gets :class:`~repro.errors.DeadlineExceeded` instead of
  blocking past a timeout;
- :func:`hedge_events` -- speculative duplicate execution ("hedged
  requests"): launch a copy after a delay, first completion wins,
  losers are abandoned.

Retry and hedge exist once, as *event chains*: the caller supplies a
``launch`` function that starts one attempt (or copy) and returns its
outcome event, and the primitive returns a gate event. Nothing is a
process: backoffs and hedge delays are :class:`~repro.engine.sim.Timeout`
callbacks and outcomes are callbacks on events. :class:`ServiceCopy` is
the event form of "queue on a resource, hold it, release", the copy a
hedged request launches; abandoning it leaves the pool at once. None of
this touches the kernel's hot paths, so simulations that do not use
them are bit-for-bit unchanged.

Randomness is explicit: jitter only happens when the caller passes a
:class:`~repro.engine.randomness.RandomStream`, which keeps every
schedule reproducible.

Example
-------
>>> from repro.engine import Simulator
>>> sim = Simulator()
>>> def flaky(attempt):
...     failure = sim.event()
...     sim.timeout(0.1).add_callback(
...         lambda _evt: failure.fail(RuntimeError("transient")))
...     return failure
>>> def driver(sim):
...     try:
...         yield retry_events(sim, flaky, RetryPolicy(max_attempts=2,
...                                                    base_delay_s=0.5))
...     except RetryExhausted as exc:
...         return exc.attempts
>>> handle = sim.spawn(driver(sim))
>>> sim.run()
0.7
>>> handle.value
2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.engine.randomness import RandomStream
from repro.engine.sim import Event, Simulator
from repro.errors import DeadlineExceeded, RetryExhausted, SimulationError


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff schedule for :func:`retry_events`.

    The delay after the ``n``-th failed attempt (1-based) is
    ``base_delay_s * multiplier ** (n - 1)``, capped at ``max_delay_s``.
    With ``jitter > 0`` and a :class:`RandomStream`, each delay is
    scaled by a uniform factor in ``[1 - jitter, 1 + jitter]`` --
    deterministic given the stream, so two runs with the same seed
    produce identical schedules.
    """

    max_attempts: int = 3
    base_delay_s: float = 1e-3
    multiplier: float = 2.0
    max_delay_s: float = float("inf")
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError("retry policy needs at least one attempt")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise SimulationError("retry delays must be non-negative")
        if self.multiplier <= 0:
            raise SimulationError("backoff multiplier must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise SimulationError("jitter must be in [0, 1)")

    def delay_s(self, attempt: int, rng: Optional[RandomStream] = None) -> float:
        """Backoff delay after the ``attempt``-th failure (1-based)."""
        if attempt < 1:
            raise SimulationError(f"attempt must be >= 1, got {attempt}")
        delay = self.base_delay_s * self.multiplier ** (attempt - 1)
        if delay > self.max_delay_s:
            delay = self.max_delay_s
        if self.jitter > 0.0 and rng is not None:
            delay *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return delay


@dataclass(frozen=True)
class HedgeOutcome:
    """Result of one :func:`hedge_events` call.

    ``launched`` counts every copy started (1 means the hedge never
    fired), so ``launched - 1`` is the extra-work overhead the caller
    should report rather than hide.
    """

    value: Any
    winner: int
    launched: int


#: Starts attempt ``n`` (1-based) of :func:`retry_events`; returns the
#: attempt's outcome event.
RetryLaunch = Callable[[int], Event]
#: Starts copy ``i`` (0-based) of :func:`hedge_events`; returns the
#: copy's outcome event and a function that abandons the copy, called
#: with a cause when another copy wins.
HedgeLaunch = Callable[[int], Tuple[Event, Callable[[Any], None]]]


def _registry(sim: Simulator) -> Any:
    return sim.observability.registry if sim.observability is not None else None


class ServiceCopy(Event):
    """Queue for a slot of ``resource``, hold it, release it -- no process.

    The event form of ``yield resource.acquire()``, ``yield
    sim.timeout(duration_s())``, ``resource.release()``: the grant
    starts a service :class:`~repro.engine.sim.Timeout` whose length
    ``duration_s()`` returns *at grant time*, and the timeout's end
    releases the slot and fires this event (with ``None``).

    :meth:`cancel` abandons the copy at the current time, wherever it
    is. A queued copy's acquire event is cancelled, so
    :meth:`~repro.engine.resources.Resource.release` prunes it instead
    of granting to it. A copy that holds its slot (granted, or in
    service) releases it now, and its pending grant or service callback
    does nothing.
    """

    __slots__ = ("resource", "duration_s", "_grant")

    def __init__(
        self, sim: Simulator, resource: Any, duration_s: Callable[[], float]
    ) -> None:
        Event.__init__(self, sim)
        self.resource = resource
        self.duration_s = duration_s
        grant = self._grant = resource.acquire()
        if grant._triggered:
            self._start(grant)
        else:
            grant.add_callback(self._start)

    def _start(self, _grant: Event) -> None:
        if not self._cancelled:
            self.sim.timeout(self.duration_s()).add_callback(self._finish)

    def _finish(self, _service: Event) -> None:
        if not self._cancelled:
            self.resource.release()
            self.succeed()

    def cancel(self, cause: Any = None) -> None:
        """Leave the pool now: dequeue, or release the held slot."""
        if self._triggered or self._cancelled:
            return
        self._cancelled = True
        if self._grant._triggered:
            self.resource.release()
        else:
            self._grant.cancel()


class _RetryCall(Event):
    """The gate of one :func:`retry_events` call, driving its own chain."""

    __slots__ = ("launch", "policy", "rng", "name", "registry", "attempt")

    def __init__(self, sim, launch, policy, rng, name) -> None:
        Event.__init__(self, sim)
        self.launch = launch
        self.policy = policy
        self.rng = rng
        self.name = name
        self.registry = _registry(sim)
        self.attempt = 0

    def _start(self, _backoff: Optional[Event] = None) -> None:
        if self._cancelled:
            return
        self.attempt += 1
        if self.registry is not None:
            self.registry.counter("resilience.retry.attempts").inc()
        self.launch(self.attempt).add_callback(self._on_outcome)

    def _on_outcome(self, outcome: Event) -> None:
        number = self.attempt
        registry = self.registry
        exc = outcome._exception
        if exc is None:
            if number > 1 and registry is not None:
                registry.counter("resilience.retry.recovered").inc()
            self.succeed(outcome._value)
            return
        if registry is not None:
            registry.counter("resilience.retry.failures").inc()
        if number >= self.policy.max_attempts:
            if registry is not None:
                registry.counter("resilience.retry.exhausted").inc()
            error = RetryExhausted(
                f"{self.name}: all {number} attempts failed (last: {exc!r})",
                attempts=number,
            )
            error.__cause__ = exc
            self.fail(error)
            return
        self.sim.timeout(self.policy.delay_s(number, self.rng)).add_callback(
            self._start
        )


def retry_events(
    sim: Simulator,
    launch: RetryLaunch,
    policy: RetryPolicy = RetryPolicy(),
    rng: Optional[RandomStream] = None,
    name: str = "retry",
) -> Event:
    """Run ``launch(n)`` until an attempt succeeds; returns the gate event.

    Attempt ``n`` (1-based) starts at once for ``n = 1``; after a failed
    attempt the backoff ``policy.delay_s(n, rng)`` is drawn when the
    failure is handled, and a :class:`~repro.engine.sim.Timeout` of that
    length starts attempt ``n + 1``. The gate fires with the successful
    attempt's value, or fails with :class:`~repro.errors.RetryExhausted`
    (its ``__cause__`` the last failure) once the budget is spent.
    Cancelling the gate (as :func:`with_deadline` does when it expires)
    stops the chain: no further attempt starts.

    With observability attached to ``sim``, increments
    ``resilience.retry.attempts`` / ``.failures`` / ``.recovered`` /
    ``.exhausted`` counters.
    """
    gate = _RetryCall(sim, launch, policy, rng, name)
    gate._start()
    return gate


class _HedgeCall(Event):
    """The gate of one :func:`hedge_events` call, driving its own copies."""

    __slots__ = ("launch", "delay_s", "max_copies", "name", "copies",
                 "pending", "last_error")

    def __init__(self, sim, launch, delay_s, max_copies, name) -> None:
        Event.__init__(self, sim)
        self.launch = launch
        self.delay_s = delay_s
        self.max_copies = max_copies
        self.name = name
        self.copies: list = []  # (outcome, abandon) per launched copy
        self.pending = 0
        self.last_error: Optional[BaseException] = None

    def _start(self) -> None:
        self.pending += 1
        copy = self.launch(len(self.copies))
        self.copies.append(copy)
        copy[0].add_callback(self._on_outcome)

    def _on_outcome(self, outcome: Event) -> None:
        if self._triggered or self._cancelled:
            return
        self.pending -= 1
        copies = self.copies
        if outcome._exception is not None:
            self.last_error = outcome._exception
            if len(copies) < self.max_copies:
                self._start()  # failed copy: hedge immediately
            elif self.pending == 0:
                self.fail(self.last_error)
            return
        launched = len(copies)
        winner = 0
        while copies[winner][0] is not outcome:
            winner += 1
        self.succeed(HedgeOutcome(value=outcome._value, winner=winner,
                                  launched=launched))
        registry = _registry(self.sim)
        if registry is not None:
            registry.counter("resilience.hedge.calls").inc()
            if launched > 1:
                registry.counter("resilience.hedge.extra_copies").inc(
                    launched - 1
                )
            if winner > 0:
                registry.counter("resilience.hedge.hedged_wins").inc()
        if launched > 1:
            cause = f"{self.name}: lost to copy {winner}"
            for loser, abandon in copies:
                if loser is not outcome and not loser._triggered:
                    abandon(cause)

    def _on_timer(self, _timer: Event) -> None:
        launched = len(self.copies)
        if self._triggered or self._cancelled or launched >= self.max_copies:
            return
        self._start()
        if launched + 1 < self.max_copies:
            self.sim.timeout(self.delay_s).add_callback(self._on_timer)


def hedge_events(
    sim: Simulator,
    launch: HedgeLaunch,
    delay_s: float,
    max_copies: int = 2,
    name: str = "hedge",
) -> Event:
    """Speculatively duplicate an operation; returns the gate event.

    Copy 0 starts at once; while no copy has finished, another starts
    every ``delay_s`` until ``max_copies`` are out. The first copy to
    finish fires the gate with a :class:`HedgeOutcome`, and every other
    copy still pending is abandoned at that same time (winner takes
    all). A copy that *fails* triggers an immediate replacement while
    budget remains; if every launched copy fails, the gate fails with
    the last failure. A copy's outcome reaches the gate one calendar
    entry after the copy finishes, so a hedge timer due in that same
    instant still launches its copy, which is then abandoned at once.

    With observability attached, increments ``resilience.hedge.calls`` /
    ``.extra_copies`` / ``.hedged_wins`` counters when the gate fires
    successfully.
    """
    if max_copies < 1:
        raise SimulationError("hedge needs at least one copy")
    if delay_s < 0:
        raise SimulationError(f"negative hedge delay: {delay_s}")
    gate = _HedgeCall(sim, launch, delay_s, max_copies, name)
    gate._start()
    if max_copies > 1:
        sim.timeout(delay_s).add_callback(gate._on_timer)
    return gate


def with_deadline(sim: Simulator, event: Event, timeout_s: float) -> Event:
    """An event mirroring ``event`` but failing after ``timeout_s``.

    If ``event`` fires (either way) within the window, the returned
    gate relays its value or exception. Otherwise the gate fails with
    :class:`~repro.errors.DeadlineExceeded` and ``event`` is cancelled
    so queue owners stop holding capacity for the abandoned waiter. The
    deadline timer is created after ``event``, so a timeout ``event``
    ending exactly at the deadline wins the tie.
    """
    if timeout_s < 0:
        raise SimulationError(f"negative deadline: {timeout_s}")
    gate = sim.event()
    timer = sim.timeout(timeout_s)
    started = sim.now

    def on_result(evt: Event) -> None:
        if gate.triggered:
            return
        timer.cancel()
        if evt._exception is not None:
            gate.fail(evt._exception)
        else:
            gate.succeed(evt.value)

    def on_timer(_evt: Event) -> None:
        if gate.triggered:
            return
        event.cancel()
        registry = _registry(sim)
        if registry is not None:
            registry.counter("resilience.deadline.expired").inc()
        gate.fail(
            DeadlineExceeded(
                f"no result within {timeout_s:g}s (started t={started:g})",
                deadline_s=timeout_s,
            )
        )

    event.add_callback(on_result)
    timer.add_callback(on_timer)
    return gate
