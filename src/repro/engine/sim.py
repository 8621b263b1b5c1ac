"""Deterministic discrete-event simulation kernel.

A small, dependency-free DES in the style of SimPy: processes are Python
generators that ``yield`` events; the :class:`Simulator` advances a
virtual clock and resumes processes when the events they wait on fire.

The kernel is deterministic: ties in event time are broken by a strictly
increasing sequence number, so two runs with the same seed produce
identical traces.

The event loop is allocation-light. The three hot operations --
``timeout()``, callback registration and callback flushing -- avoid
per-event closures entirely:

- :meth:`Simulator.timeout` creates a dedicated :class:`Timeout` event
  and pushes it straight into the event calendar; the run loop triggers
  it inline instead of calling a scheduled lambda.
- Calendar entries are plain ``(when, seq, kind, a, b)`` tuples.
  ``kind`` selects the dispatch -- ``_KIND_CALL`` runs ``a()``,
  ``_KIND_TIMEOUT`` triggers the :class:`Timeout` ``a`` inline,
  ``_KIND_CALLBACK`` runs ``a(b)`` (callback, event) -- so firing an
  event never allocates a closure. ``seq`` is unique, so ordering is
  decided entirely by ``(when, seq)`` and stays bit-for-bit identical
  to the original lambda-based kernel.
- Almost every event has exactly one waiter, so :class:`Event` keeps a
  single ``_callback`` slot that holds the callback directly and only
  spills into a list when a second callback registers (callbacks are
  callables, never lists, so ``type(c) is list`` discriminates).

Two rules skip a calendar entry that would pop straight back off. Both
apply only when no other entry is due at or before ``now``, so the
skipped entry would have been the very next one popped and the
``(when, seq)`` order of everything else is unchanged:

- *Lone timeout waiter.* When a :class:`Timeout` with a single waiter
  fires, the run loop calls the waiter directly instead of pushing a
  callback entry at the same time.
- *Inline resume.* When a process yields an event that has already
  fired (a free :class:`~repro.engine.resources.Resource` grant, a
  pre-succeeded event, a finished child's handle),
  :meth:`ProcessHandle._step` resumes the generator in a loop instead
  of pushing its resume entry. This rule is off on the observability
  path.

Both rules hold under :meth:`Simulator.run` with or without an
``until`` horizon -- there is one dispatch loop, and the horizon costs
one comparison per popped entry. Both make
:attr:`Simulator.events_processed` count fewer entries than a kernel
without them; no simulated time, value or order moves.

Pending events live in a *three-tier calendar*, split by ``_horizon``
(the largest timestamp of the last sorted batch):

- ``_far`` is an unsorted overflow array holding every entry at or
  beyond the horizon. The dominant DES pattern -- each completion
  scheduling the next timeout further in the future -- costs one
  ``list.append`` per schedule.
- ``_near`` is a sorted array consumed in place through a moving
  ``_head`` cursor, one indexed read per fire. It is written once per
  refill and never inserted into: when it and the heap below have
  drained, the overflow (already nearly sorted, because virtual time
  only moves forward) is sorted once with Timsort and becomes the next
  segment.
- ``_low`` is a binary heap holding every entry scheduled *below* the
  horizon after the refill: same-time entries (callback flushes and
  spawns) and, once a bulk arrival batch has pushed the horizon far
  ahead, every hop and timeout due before its end. A heap push costs
  O(log pending-below-horizon) instead of the O(segment) memmove a
  sorted insert into ``_near`` would pay.

Every pop takes the smaller of ``_near[_head]`` and the heap head.
Entries are totally ordered by the unique ``(when, seq)`` key, so the
pop sequence -- and every golden trace -- is bit-for-bit identical to a
plain heap-based kernel.

Observability is opt-in: attach a
:class:`~repro.engine.observability.Observability` (pass it to the
constructor, or build the simulator inside ``with obs:``) and
``sim.span(...)`` records spans, processes are
accounted per name, and a process error is noted before it raises
:class:`~repro.errors.ProcessFailure`. Without one, the extra cost is
a few ``is None`` checks per event.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(worker(sim, "a", 2.0))
>>> _ = sim.spawn(worker(sim, "b", 1.0))
>>> sim.run()
2.0
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import itertools
from bisect import bisect_left as _bisect_left
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.engine.observability import Observability
from repro.errors import ProcessFailure, SimulationError

#: Type alias for simulation processes.
Process = Generator["Event", Any, Any]

_INF = float("inf")

#: Calendar-entry dispatch kinds (position 2 of a queue entry). ``seq``
#: at position 1 is unique, so these never participate in ordering.
_KIND_CALL = 0  # a()
_KIND_TIMEOUT = 1  # trigger Timeout a inline
_KIND_CALLBACK = 2  # a(b)

_new_event = object.__new__


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*, becomes *triggered* when given a value (or
    an exception), and notifies all registered callbacks exactly once.
    A pending event may also be *cancelled* -- a hint to queue owners
    (e.g. :class:`~repro.engine.resources.Resource`) that its waiter has
    abandoned it and the grant should go to someone else.

    Callback storage is one slot (``_callback``) holding ``None``, the
    sole registered callable, or -- only once a second waiter registers
    -- a list of callables. Callbacks must be callables (never list
    instances), which keeps the discrimination a single type check;
    nearly all events in practice have exactly one waiter.
    """

    __slots__ = ("sim", "_callback", "_triggered", "_value",
                 "_exception", "_cancelled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._callback: Any = None
        self._triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        """Whether the event has already fired."""
        return self._triggered

    @property
    def cancelled(self) -> bool:
        """Whether the event was abandoned before firing."""
        # Timeouts skip initialising the slot (see Simulator.timeout);
        # an unset slot simply means "never cancelled".
        try:
            return self._cancelled
        except AttributeError:
            return False

    @property
    def value(self) -> Any:
        """The value the event fired with (``None`` until triggered)."""
        return self._value

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event fires.

        If the event already fired, the callback is scheduled to run
        immediately (at the current simulation time).
        """
        if self._triggered:
            sim = self.sim
            sim._push(
                (sim._now, sim._seq_next(), _KIND_CALLBACK, callback, self)
            )
            return
        current = self._callback
        if current is None:
            self._callback = callback
        elif current.__class__ is list:
            current.append(callback)
        else:
            self._callback = [current, callback]

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self._flush()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event with an exception to raise in the waiter."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._exception = exception
        self._flush()
        return self

    def cancel(self) -> None:
        """Mark a still-pending event as abandoned by its waiter.

        Cancelling an already-triggered event is a no-op. A queue owner
        (:class:`~repro.engine.resources.Resource`) prunes cancelled
        events instead of granting to them, which prevents capacity leaking to waiters
        that gave up (an expired
        :func:`~repro.engine.resilience.with_deadline`, an abandoned
        hedged copy).
        """
        if not self._triggered:
            self._cancelled = True

    def _flush(self) -> None:
        """Schedule the registered callbacks at the current time.

        Callbacks go through the calendar (never run re-entrantly), in
        registration order, each as a direct ``(callback, event)``
        calendar entry -- no closure per callback.
        """
        callback = self._callback
        if callback is None:
            return
        self._callback = None
        sim = self.sim
        now = sim._now
        push = sim._push
        seq_next = sim._seq_next
        if callback.__class__ is list:
            for cb in callback:
                push((now, seq_next(), _KIND_CALLBACK, cb, self))
        else:
            push((now, seq_next(), _KIND_CALLBACK, callback, self))


class Timeout(Event):
    """An event that fires a fixed delay after its creation.

    Created by :meth:`Simulator.timeout`. The run loop recognises its
    heap entry and triggers it inline -- no scheduled closure -- which is
    the kernel's single hottest path. The payload value is stored
    directly in the value slot at creation (it is immutable from then
    on), so triggering is a single flag flip plus the callback flush.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", value: Any = None) -> None:
        self.sim = sim
        self._callback = None
        self._triggered = False
        self._value = value
        self._exception = None
        self._cancelled = False


class ProcessHandle(Event):
    """The running instance of a process generator.

    A ``ProcessHandle`` is itself an :class:`Event` that fires with the
    generator's return value when the process finishes, so processes can
    wait on each other: ``yield sim.spawn(child(sim))``.
    """

    __slots__ = ("generator", "name", "spawned_at", "finished_at", "steps",
                 "_bound_step")

    def __init__(self, sim: "Simulator", generator: Process, name: str = "") -> None:
        Event.__init__(self, sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.spawned_at = sim._now
        self.finished_at: Optional[float] = None
        self.steps = 0
        # One bound method for the process's whole lifetime instead of a
        # fresh one per yield.
        self._bound_step = self._step

    def lifetime(self) -> Optional[float]:
        """Virtual time from spawn to completion (``None`` while running)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.spawned_at

    def succeed(self, value: Any = None) -> "Event":
        """Fire the handle with the process's return value."""
        self.finished_at = self.sim.now
        return super().succeed(value)

    def _step(self, fired: Optional[Event]) -> None:
        """Advance the generator to its next wait.

        The uninstrumented path is kept branch-identical to a bare
        kernel -- one attribute load and ``is None`` test -- so disabled
        observability stays within the X10 overhead budget. On that path
        a yield of an event that has already fired resumes the generator
        in place whenever its resume entry would be the next one popped
        anyway (the inline-resume rule in the module docstring).
        """
        sim = self.sim
        observability = sim.observability
        if observability is None:
            generator = self.generator
            while True:
                try:
                    if fired is not None and fired._exception is not None:
                        target = generator.throw(fired._exception)
                    else:
                        send_value = fired._value if fired is not None else None
                        target = generator.send(send_value)
                except StopIteration as stop:
                    self.finished_at = sim._now
                    Event.succeed(self, stop.value)
                    return
                except Exception as exc:
                    raise self._failure(exc) from exc
                if not isinstance(target, Event) or not target._triggered:
                    break  # a wait (or a non-event, rejected below)
                # Already fired: the resume entry add_callback would push
                # at `now` pops straight back unless another entry is due
                # at or before `now` (same test as the run loop's lone
                # timeout waiter), so resume here instead.
                due = sim.peek()
                if due is not None and due <= sim._now:
                    break
                fired = target
        else:
            observability._note_step(self)
            sim._active_process = self
            try:
                if fired is not None and fired._exception is not None:
                    target = self.generator.throw(fired._exception)
                else:
                    send_value = fired._value if fired is not None else None
                    target = self.generator.send(send_value)
            except StopIteration as stop:
                self._finish(stop.value)
                return
            except Exception as exc:
                raise self._failure(exc) from exc
            finally:
                sim._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, "
                "expected an Event"
            )
        if (
            type(target) is Timeout
            and not target._triggered
            and target._callback is None
        ):
            # Fresh pending timeout with a free single-callback slot: the
            # common yield target. Store directly, skipping the
            # add_callback call frame.
            target._callback = self._bound_step
        else:
            target.add_callback(self._bound_step)

    def _finish(self, value: Any) -> None:
        """Record normal completion and fire the handle."""
        self.succeed(value)
        observability = self.sim.observability
        if observability is not None:
            observability._note_process_end(self)

    def _failure(self, exc: BaseException) -> ProcessFailure:
        """The error to raise for an exception that escaped the generator.

        Observability (when attached) notes the error first; the
        returned :class:`~repro.errors.ProcessFailure` carries the
        process name and virtual time out of :meth:`Simulator.run`.
        """
        sim = self.sim
        observability = sim.observability
        if observability is not None:
            observability._note_process_error(self, exc)
        return ProcessFailure(
            f"process {self.name!r} failed at t={sim.now:g}: {exc!r}",
            process_name=self.name,
            sim_time=sim.now,
        )


class _NullSpan:
    """No-op context manager returned by ``sim.span`` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Simulator:
    """Event loop owning the virtual clock.

    Parameters
    ----------
    start:
        Initial value of the clock (defaults to ``0.0``).
    observability:
        Optional :class:`~repro.engine.observability.Observability` to
        attach; equivalent to calling ``observability.attach(sim)``.
        Defaults to the ambient one (:meth:`Observability.current`).
    """

    def __init__(self, start: float = 0.0, observability: Any = None) -> None:
        self._now = float(start)
        # Three-tier event calendar (see the module docstring). ``_near``
        # is sorted ascending by (when, seq), written only by _refill
        # and consumed in place through the moving ``_head`` cursor;
        # ``_low`` is a heap of entries pushed with ``when < _horizon``
        # since that refill; ``_far`` is unsorted overflow holding every
        # entry with ``when >= _horizon``. ``_far_min`` tracks the
        # smallest timestamp in ``_far`` (inf when empty) so peeking the
        # next due time never scans. All three list objects keep their
        # identity for the simulator's lifetime.
        self._near: list = []
        self._low: list = []
        self._far: list = []
        self._head = 0
        self._horizon = -_INF
        self._far_min = _INF
        self._sequence = itertools.count()
        # Bound ``__next__`` of the tie-break counter: one call, no
        # global ``next`` lookup, on every heap push.
        self._seq_next = self._sequence.__next__
        self._event_count = 0
        self.observability: Any = None
        self._active_process: Optional[ProcessHandle] = None
        if observability is None:
            observability = Observability.current()
        if observability is not None:
            observability.attach(self)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of scheduled heap entries executed so far.

        For speed the run loop accumulates this locally and folds it
        back in when :meth:`run` returns (or raises); reads from
        *inside* a callback may lag until then.
        """
        return self._event_count

    # -- scheduling primitives -------------------------------------------

    def _push(self, entry: tuple) -> None:
        """Insert a calendar entry, preserving total (when, seq) order.

        Entries at or beyond the horizon append to the unsorted overflow
        (the dominant schedule-into-the-future pattern); earlier entries
        go into the below-horizon heap. Either way every overflow entry
        compares greater than every sorted-segment and heap entry, which
        is what lets the run loop ignore ``_far`` until both drain.
        """
        when = entry[0]
        if when >= self._horizon:
            self._far.append(entry)
            if when < self._far_min:
                self._far_min = when
        else:
            _heappush(self._low, entry)

    def _refill(self) -> None:
        """Sort the overflow into a fresh consumable segment.

        Only called when the sorted segment and the below-horizon heap
        are fully consumed and the overflow is non-empty. Virtual time
        only moves forward, so the overflow is typically appended in
        nearly ascending order -- exactly the input Timsort consumes in
        linear time.
        """
        near, far = self._near, self._far
        far.sort()
        near.clear()
        near.extend(far)
        far.clear()
        self._head = 0
        self._horizon = near[-1][0]
        self._far_min = _INF
        observability = self.observability
        if observability is not None:
            observability.registry.counter("engine.calendar.refills").inc()

    def _schedule_at(self, when: float, call: Callable[[], None]) -> None:
        """Schedule a zero-argument callable at absolute time ``when``."""
        if not when >= self._now:  # also refuses NaN
            raise SimulationError(
                f"cannot schedule into the past: {when} < {self._now}"
            )
        entry = (when, self._seq_next(), _KIND_CALL, call, None)
        # Inline ``_push``: every workload callback reschedules here.
        if when >= self._horizon:
            self._far.append(entry)
            if when < self._far_min:
                self._far_min = when
        else:
            _heappush(self._low, entry)

    # -- public API --------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now.

        The returned :class:`Timeout` is pushed directly into the event
        calendar; the run loop triggers it inline, so a timeout costs
        one object and one calendar entry -- no closure, no scheduled
        lambda, and (in the dominant schedule-ahead case) one plain
        ``list.append``.
        """
        if not delay >= 0:  # also refuses NaN
            raise SimulationError(f"negative delay: {delay}")
        # Inline construction (no __init__ call frame): this is the
        # single most frequent allocation in every simulation.
        evt = _new_event(Timeout)
        evt.sim = self
        evt._callback = None
        evt._triggered = False
        evt._value = value
        evt._exception = None
        # ``_cancelled`` is deliberately left unset: ``cancel()`` stores
        # it on demand and the ``cancelled`` property defaults to False,
        # saving one slot store on the hottest allocation in the kernel.
        when = self._now + delay
        entry = (when, self._seq_next(), _KIND_TIMEOUT, evt, None)
        if when >= self._horizon:
            # Inline overflow append: the hottest push in the kernel.
            self._far.append(entry)
            if when < self._far_min:
                self._far_min = when
        else:
            _heappush(self._low, entry)
        return evt

    def schedule_batch(
        self,
        whens: Iterable[float],
        callback: Callable[[Any], None],
        payloads: Optional[Iterable[Any]] = None,
    ) -> int:
        """Bulk-schedule ``callback(payload)`` at each ascending time.

        The fast path for feeding a pre-generated arrival trace (e.g. a
        :mod:`repro.mc.traffic` scenario) into the calendar: instead of
        one ``schedule`` call per arrival, all entries are built in a
        single C-level pass (``zip`` over the times, the tie-break
        counter and the payloads) and appended to the unsorted overflow
        tier, which the next :meth:`_refill` absorbs with one Timsort.
        Entries below the current horizon -- only possible mid-run --
        are pushed one by one into the below-horizon heap, exactly as a
        loop of individual schedules would.

        ``whens`` must be ascending (a sorted trace) and must not start
        in the past; ``payloads`` defaults to ``range(n)``, i.e. the
        arrival index. Sequence numbers are assigned in input order, so
        the resulting pop sequence -- and every golden trace -- is
        bit-for-bit identical to the equivalent loop of per-event
        schedule calls. Returns the number of entries scheduled.
        """
        if type(whens) is not list:
            tolist = getattr(whens, "tolist", None)
            whens = tolist() if tolist is not None else [float(w) for w in whens]
        n = len(whens)
        if n == 0:
            return 0
        if not whens[0] >= self._now:  # also refuses NaN
            raise SimulationError(
                f"cannot schedule into the past: {whens[0]} < {self._now}"
            )
        if n > 1 and sorted(whens) != whens:
            raise SimulationError("schedule_batch requires ascending times")
        if payloads is None:
            payloads = range(n)
        else:
            if type(payloads) is not list and hasattr(payloads, "tolist"):
                payloads = payloads.tolist()
            elif not hasattr(payloads, "__len__"):
                payloads = list(payloads)
            if len(payloads) != n:
                raise SimulationError(
                    f"payload count {len(payloads)} != time count {n}"
                )
        # One C-level pass: zip consumes the tie-break counter directly,
        # so sequence numbers are consecutive in input order -- the same
        # assignment a Python loop of schedules would make.
        entries = list(zip(
            whens,
            self._sequence,
            itertools.repeat(_KIND_CALLBACK),
            itertools.repeat(callback),
            payloads,
        ))
        # Ascending input makes the horizon split a single bisection:
        # entries[split:] all belong in the overflow tier.
        split = _bisect_left(whens, self._horizon)
        if split:
            low = self._low
            for entry in entries[:split]:
                _heappush(low, entry)
        if split < n:
            self._far.extend(entries[split:])
            first = whens[split]
            if first < self._far_min:
                self._far_min = first
        observability = self.observability
        if observability is not None:
            observability.registry.counter(
                "engine.calendar.batch_inserted"
            ).inc(n)
        return n

    def spawn(self, generator: Process, name: str = "") -> ProcessHandle:
        """Start a new process and return its handle."""
        handle = ProcessHandle(self, generator, name)
        self._push(
            (self._now, self._seq_next(), _KIND_CALLBACK, handle._bound_step,
             None)
        )
        return handle

    def span(self, name: str, **tags: Any):
        """A context manager tracing a span of virtual time.

        With no attached observability this returns a shared no-op
        context manager, so instrumented model code costs almost nothing
        when tracing is disabled.
        """
        observability = self.observability
        if observability is None:
            return _NULL_SPAN
        return observability.span(name, **tags)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final clock value. Entries at exactly ``until`` still
        run; the first entry beyond it stays in the calendar, and the
        clock then reads ``until`` unless it is already later (it never
        moves back). The event counter is folded back in on exit.
        """
        near = self._near  # stable identity; only contents mutate
        low = self._low
        far = self._far
        seq_next = self._seq_next
        push = self._push
        stop = _INF if until is None else until
        popped = 0
        try:
            # The head cursor is re-read every iteration so nested run()
            # calls (a callback that re-enters the loop) stay correct.
            # An entry beyond ``stop`` stays in the calendar: the sorted
            # segment's head is checked before it advances, and a heap
            # entry is pushed back (one push per run(until=...) call
            # instead of a peek before every heap pop).
            while True:
                head = self._head
                if head < len(near):
                    entry = near[head]
                    if low and low[0] < entry:
                        entry = _heappop(low)
                        when = entry[0]
                        if when > stop:
                            _heappush(low, entry)
                            break
                    else:
                        when = entry[0]
                        if when > stop:
                            break
                        head += 1
                        self._head = head
                elif low:
                    entry = _heappop(low)
                    when = entry[0]
                    if when > stop:
                        _heappush(low, entry)
                        break
                elif far:
                    self._refill()
                    entry = near[0]
                    when = entry[0]
                    if when > stop:
                        break
                    head = self._head = 1
                else:
                    break
                popped += 1
                self._now = when
                kind = entry[2]
                if kind == 1:  # _KIND_TIMEOUT -- trigger inline
                    # Checked first: inline dispatch keeps most callback
                    # entries out of the calendar, so timeout entries
                    # dominate what actually pops.
                    evt = entry[3]
                    if evt._triggered:
                        raise SimulationError("event already triggered")
                    evt._triggered = True
                    # Inline Event._flush: schedule waiters at `when`.
                    callback = evt._callback
                    if callback is not None:
                        evt._callback = None
                        if callback.__class__ is list:
                            for cb in callback:
                                push((when, seq_next(), 2, cb, evt))
                        elif (near[head][0] if head < len(near)
                              else self._far_min) > when and not (
                                  low and low[0][0] <= when):
                            # No other entry is due at `when` (the
                            # overflow minimum is inf when empty, and only
                            # matters once the sorted segment has
                            # drained), so the callback entry we would
                            # push would pop straight back off. Dispatch
                            # it directly -- relative sequence order (and
                            # therefore every tie-break) is unchanged.
                            callback(evt)
                        else:
                            push((when, seq_next(), 2, callback, evt))
                elif kind == 2:  # _KIND_CALLBACK: a(b)
                    entry[3](entry[4])
                else:  # _KIND_CALL
                    entry[3]()
        finally:
            # Incremental so a nested run() (a callback that re-enters
            # the loop) keeps the total exact.
            self._event_count += popped
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def peek(self) -> Optional[float]:
        """Time of the next scheduled callback, or ``None`` if idle."""
        low = self._low
        if self._head < len(self._near):
            when = self._near[self._head][0]
            return low[0][0] if low and low[0][0] < when else when
        if low:
            return low[0][0]
        if self._far:
            return self._far_min
        return None
