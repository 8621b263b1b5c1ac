"""Additional edge-case tests for the kernel and low-level models."""

import heapq
import itertools
import random

import pytest

from repro.engine import Observability, Resource, Simulator
from repro.errors import ModelError
from repro.node import (
    Kernel,
    ProgrammingModel,
    attainable_ops_per_s,
    execution_time_s,
    nvidia_k80,
    xeon_e5,
)


class TestProcessReturnValues:
    def test_generator_return_value_propagates(self):
        sim = Simulator()

        def child(sim):
            yield sim.timeout(1.0)
            return {"answer": 42}

        handle = sim.spawn(child(sim))
        sim.run()
        assert handle.value == {"answer": 42}

    def test_chained_spawns(self):
        sim = Simulator()
        results = []

        def grandchild(sim):
            yield sim.timeout(1.0)
            return 1

        def child(sim):
            value = yield sim.spawn(grandchild(sim))
            yield sim.timeout(1.0)
            return value + 1

        def parent(sim):
            value = yield sim.spawn(child(sim))
            results.append((sim.now, value + 1))

        sim.spawn(parent(sim))
        sim.run()
        assert results == [(2.0, 3)]


class TestResourceStress:
    def test_interleaved_acquire_release_preserves_capacity(self):
        sim = Simulator()
        resource = Resource(sim, capacity=3)
        violations = []

        def worker(sim, delay, hold):
            yield sim.timeout(delay)
            yield resource.acquire()
            if resource.in_use > resource.capacity:
                violations.append(sim.now)
            yield sim.timeout(hold)
            resource.release()

        for i in range(20):
            sim.spawn(worker(sim, delay=i * 0.1, hold=0.35))
        sim.run()
        assert not violations
        assert resource.in_use == 0


class TestRooflineWithProgrammingModels:
    def test_portable_model_slower_than_native(self):
        gpu = nvidia_k80()
        kernel = Kernel("dense", ops=1e12, bytes_moved=1e9)
        native = execution_time_s(kernel, gpu, ProgrammingModel.CUDA)
        portable = execution_time_s(kernel, gpu, ProgrammingModel.OPENCL)
        assert portable > native

    def test_attainable_respects_model(self):
        gpu = nvidia_k80()
        kernel = Kernel("dense", ops=1e12, bytes_moved=1e9)
        assert attainable_ops_per_s(
            kernel, gpu, ProgrammingModel.OPENCL
        ) < attainable_ops_per_s(kernel, gpu, ProgrammingModel.CUDA)

    def test_unsupported_model_raises(self):
        cpu = xeon_e5()
        kernel = Kernel("x", ops=1e9, bytes_moved=1e6)
        with pytest.raises(ModelError):
            execution_time_s(kernel, cpu, ProgrammingModel.SPIKE)

    def test_memory_bound_kernel_model_invariant(self):
        # Below the bandwidth roof, the programming model cannot matter.
        gpu = nvidia_k80()
        kernel = Kernel("scan", ops=1e9, bytes_moved=1e12)
        native = attainable_ops_per_s(kernel, gpu, ProgrammingModel.CUDA)
        portable = attainable_ops_per_s(kernel, gpu, ProgrammingModel.OPENCL)
        assert native == portable  # both pinned to the bandwidth roof


class TestCancelledEventEdgeCases:
    """Pin what cancelling an event means: a hint, not a trigger."""

    def test_fail_on_cancelled_event_still_delivers(self):
        # cancel() is a hint to queue owners, not a trigger: a cancelled
        # event can still fail and its callbacks still run.
        sim = Simulator()
        evt = sim.event()
        evt.cancel()
        assert evt.cancelled and not evt.triggered
        caught = []

        def waiter(sim):
            try:
                yield evt
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.spawn(waiter(sim))
        evt.fail(RuntimeError("failed after cancel"))
        sim.run()
        assert caught == ["failed after cancel"]
        assert evt.cancelled and evt.triggered

    def test_succeed_on_cancelled_event_still_delivers(self):
        sim = Simulator()
        evt = sim.event()
        evt.cancel()
        got = []

        def waiter(sim):
            got.append((yield evt))

        sim.spawn(waiter(sim))
        evt.succeed("value anyway")
        sim.run()
        assert got == ["value anyway"]


class TestStoreEdgeCases:
    def test_event_fail_before_wait(self):
        sim = Simulator()
        evt = sim.event()
        evt.fail(ValueError("early failure"))
        caught = []

        def waiter(sim):
            try:
                yield evt
            except ValueError as exc:
                caught.append(str(exc))

        sim.spawn(waiter(sim))
        sim.run()
        assert caught == ["early failure"]


class TestTwoTierCalendarEdges:
    """Remaining edges of the array-backed three-tier event calendar.

    The calendar keeps a sorted in-place-consumed ``_near`` segment and
    an unsorted ``_far`` overflow whose minimum is tracked in
    ``_far_min``; entries scheduled below the horizon go to the ``_low``
    heap instead. These tests pin the overflow-min bookkeeping across
    refill cycles, the write-once sorted segment under sustained
    below-horizon insertion, and calendar behaviour under mass
    cancellation -- all through observable behaviour (``peek``, firing
    order, final clock), with white-box asserts only where the edge is
    otherwise invisible.
    """

    def test_far_min_tracks_minimum_across_refills(self):
        sim = Simulator()
        fired = []
        # Descending far-future times: every push lands in the unsorted
        # overflow and each one lowers the tracked minimum.
        for when in (50.0, 40.0, 30.0, 20.0, 10.0):
            sim.timeout(when).add_callback(
                lambda e, w=when: fired.append(w)
            )
        assert sim.peek() == 10.0
        # Consume through the first refill, then schedule more far
        # entries: _far_min must restart from inf, not stay stale.
        sim.run(until=25.0)
        assert fired == [10.0, 20.0]
        for when in (9.0, 8.0):  # below the horizon -> heap tier
            sim.timeout(when).add_callback(
                lambda e, w=when: fired.append(25.0 + w)
            )
        assert sim.peek() == 30.0  # near head still ahead of 33/34
        sim.run()
        assert fired == [10.0, 20.0, 30.0, 33.0, 34.0, 40.0, 50.0]
        assert sim.peek() is None

    def test_far_min_resets_after_full_drain(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        assert sim.peek() is None
        # A fresh schedule after a complete drain must re-prime the
        # overflow minimum from scratch.
        sim.timeout(2.0)
        assert sim.peek() == 7.0

    def test_below_horizon_chain_never_grows_sorted_segment(self):
        # A sentinel far in the future pins the horizon high, so every
        # chained timeout lands below it: each one must go to the heap
        # tier, leaving the write-once sorted segment untouched.
        obs = Observability()
        sim = Simulator(observability=obs)
        n_chain = 9_000
        fired = []
        sim.timeout(1e9, "sentinel").add_callback(
            lambda e: fired.append(e.value)
        )
        sim.run(until=0.0)  # force the refill that sets the horizon
        refills = obs.registry.counter("engine.calendar.refills")
        assert refills.value == 1.0
        near_len = len(sim._near)
        samples = []

        def chain(sim):
            for _ in range(n_chain):
                yield sim.timeout(1.0)
                samples.append((sim.now, refills.value, len(sim._near)))
            fired.append(sim.now)

        sim.spawn(chain(sim))
        sim.run()
        assert fired == [float(n_chain), "sentinel"]
        assert [t for t, _, _ in samples] == [
            float(i) for i in range(1, n_chain + 1)
        ]
        # No refill happens during the chain, so the sorted segment
        # must keep exactly its refill-time length throughout.
        assert {(r, n) for _, r, n in samples} == {(1.0, near_len)}

    def test_mass_cancellation_keeps_calendar_consistent(self):
        # Cancellation is a pruning hint, not an unschedule: cancelled
        # timeouts still pop (and still count), the calendar stays
        # totally ordered, and survivors fire at the right times.
        sim = Simulator()
        doomed = [sim.timeout(float(i)) for i in range(1, 2_001)]
        survivor_times = []
        for when in (500.5, 1500.5, 2500.5):
            sim.timeout(when).add_callback(
                lambda e, w=when: survivor_times.append((sim.now, w))
            )
        for evt in doomed:
            evt.cancel()
        assert all(evt.cancelled for evt in doomed)
        sim.run()
        assert survivor_times == [(500.5, 500.5), (1500.5, 1500.5),
                                  (2500.5, 2500.5)]
        assert sim.now == 2500.5
        assert all(evt.triggered for evt in doomed)
        # 2000 cancelled + 3 survivors popped, plus callback entries.
        assert sim.events_processed >= 2_003

    def test_mass_cancellation_interleaved_with_refills(self):
        sim = Simulator()
        log = []

        def canceller(sim):
            # Repeatedly schedule a far batch, cancel most of it while
            # it is still in the unsorted overflow, and let the rest
            # fire -- every round crosses a refill boundary.
            for round_no in range(5):
                batch = [sim.timeout(10.0 + i * 0.25) for i in range(40)]
                for evt in batch[1:]:
                    evt.cancel()
                value = yield batch[0]
                log.append((round_no, sim.now, value))

        sim.spawn(canceller(sim))
        sim.run()
        assert [entry[0] for entry in log] == list(range(5))
        assert [entry[1] for entry in log] == [
            10.0 + 10.0 * i for i in range(5)
        ]


class _ModelTimeout:
    """A timeout handle of :class:`_HeapModelKernel` (one waiter)."""

    __slots__ = ("callback",)

    def add_callback(self, callback):
        self.callback = callback


class _HeapModelKernel:
    """Reference kernel: one plain ``heapq`` calendar on ``(when, seq)``.

    It mirrors the :class:`Simulator` contract the calendar tiers must
    not change -- sequence numbering, ``run(until)`` semantics, and the
    run loop's inline dispatch of a lone timeout waiter when nothing
    else is due at the same time (with or without a horizon) -- with a
    single heap and no tiers.
    """

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._heap = []
        self._seq = itertools.count()

    def timeout(self, delay):
        handle = _ModelTimeout()
        heapq.heappush(self._heap, (self.now + delay, next(self._seq),
                                    handle, None, None))
        return handle

    def schedule_batch(self, whens, callback):
        for index, when in enumerate(whens):
            heapq.heappush(self._heap, (when, next(self._seq), None,
                                        callback, index))

    def peek(self):
        return self._heap[0][0] if self._heap else None

    def run(self, until=None):
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            when, _, handle, callback, payload = heapq.heappop(heap)
            self.now = when
            self.events_processed += 1
            if handle is None:
                callback(payload)
            elif not (heap and heap[0][0] <= when):
                handle.callback(handle)  # inline: no entry, no seq
            else:
                heapq.heappush(heap, (when, next(self._seq), None,
                                      handle.callback, handle))
        if until is not None and until > self.now:
            self.now = until


def _drive_random_interleaving(kernel, seed):
    """Drive ``kernel`` through a random mix of calendar operations.

    Roots and the children of every fired entry are schedule-ahead
    timeouts (landing in the overflow), short timeouts (below the
    horizon once a refill has set it), same-time timeouts and small
    ascending ``schedule_batch`` calls; top-level ``run(until=...)``
    calls interleave with further scheduling. Times sit on a coarse
    grid so ties across tiers are common. Returns the firing log and a
    ``(now, events_processed, peek)`` sample after every run.
    """
    rng = random.Random(seed)
    ids = itertools.count()
    fired = []
    budget = [150]

    def grid(lo, hi):
        return round(rng.uniform(lo, hi) * 2.0) / 2.0

    def fire(ident):
        fired.append((kernel.now, ident))
        for _ in range(rng.randint(0, 2)):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            schedule_one()

    def schedule_one():
        choice = rng.randrange(4)
        if choice == 3:
            whens = sorted(kernel.now + grid(0.0, 30.0)
                           for _ in range(rng.randint(1, 4)))
            idents = [next(ids) for _ in whens]
            kernel.schedule_batch(whens, lambda i: fire(idents[i]))
            return
        delay = (grid(20.0, 60.0), grid(0.0, 3.0), 0.0)[choice]
        kernel.timeout(delay).add_callback(
            lambda _evt, ident=next(ids): fire(ident)
        )

    for _ in range(rng.randint(1, 6)):
        schedule_one()
    samples = []
    until = 0.0
    for _ in range(rng.randint(0, 4)):
        until += grid(0.0, 15.0)
        kernel.run(until=until)
        samples.append((kernel.now, kernel.events_processed, kernel.peek()))
        for _ in range(rng.randint(0, 3)):
            schedule_one()
    kernel.run()
    samples.append((kernel.now, kernel.events_processed, kernel.peek()))
    return fired, samples


class TestCalendarProperties:
    """Property-based: random schedules against the total-order model.

    The calendar's contract is a stable total order on ``(when,
    schedule-sequence)`` regardless of how entries split between the
    sorted near segment, the below-horizon heap and the unsorted
    overflow, where ``run(until)``
    horizons land, or which events get cancelled.
    """

    from hypothesis import given, settings
    from hypothesis import strategies as st

    _delays = st.lists(
        st.floats(min_value=0.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=80,
    )

    @settings(max_examples=60, deadline=None)
    @given(delays=_delays, split=st.floats(min_value=0.0, max_value=60.0))
    def test_random_schedules_fire_in_total_order(self, delays, split):
        sim = Simulator()
        fired = []
        for idx, delay in enumerate(delays):
            sim.timeout(delay).add_callback(
                lambda e, i=idx: fired.append((sim.now, i))
            )
        # run(until) is inclusive of events at exactly `until`.
        sim.run(until=split)
        assert fired == sorted(
            ((d, i) for i, d in enumerate(delays) if d <= split)
        )
        assert sim.now == max(split, sim.now)
        sim.run()
        assert fired == sorted((d, i) for i, d in enumerate(delays))
        assert sim.peek() is None

    @settings(max_examples=60, deadline=None)
    @given(
        delays=_delays,
        cancel_mask=st.lists(st.booleans(), min_size=1, max_size=80),
    )
    def test_cancellation_never_perturbs_survivor_order(
        self, delays, cancel_mask
    ):
        sim = Simulator()
        fired = []
        events = []
        for idx, delay in enumerate(delays):
            evt = sim.timeout(delay)
            evt.add_callback(lambda e, i=idx: fired.append((sim.now, i)))
            events.append(evt)
        cancelled = {
            idx for idx, (evt, flag) in enumerate(zip(events, cancel_mask))
            if flag and evt.cancel() is None and evt.cancelled
        }
        sim.run()
        # Cancellation is a pruning hint: every entry still pops and
        # every callback still runs, in the identical total order.
        assert fired == sorted((d, i) for i, d in enumerate(delays))
        assert all(events[idx].triggered for idx in cancelled)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_ops=st.integers(min_value=1, max_value=60),
    )
    def test_nested_scheduling_matches_heap_model(self, seed, n_ops):
        import heapq
        import random as _random

        rng = _random.Random(seed)
        plan = [
            (rng.uniform(0.0, 8.0), rng.randint(0, 2), rng.uniform(0.0, 8.0))
            for _ in range(n_ops)
        ]

        # Reference model: a plain heap ordered by (when, seq), where
        # firing op i schedules its children relative to its own time.
        model_fired = []
        heap = []
        seq = 0
        for delay, _, _ in plan:
            heapq.heappush(heap, (delay, seq))
            seq += 1
        while heap:
            when, idx = heapq.heappop(heap)
            model_fired.append((when, idx))
            if idx < len(plan):
                _, n_children, child_delay = plan[idx]
                for _ in range(n_children):
                    heapq.heappush(heap, (when + child_delay, seq))
                    seq += 1

        sim = Simulator()
        fired = []
        counter = {"seq": len(plan)}

        def on_fire(idx, n_children, child_delay):
            def callback(_evt):
                fired.append((sim.now, idx))
                for _ in range(n_children):
                    child_idx = counter["seq"]
                    counter["seq"] += 1
                    sim.timeout(child_delay).add_callback(
                        lambda e, i=child_idx: fired.append((sim.now, i))
                    )
            return callback

        for idx, (delay, n_children, child_delay) in enumerate(plan):
            sim.timeout(delay).add_callback(
                on_fire(idx, n_children, child_delay)
            )
        sim.run()
        assert fired == model_fired

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_random_interleavings_match_heap_model_kernel(self, seed):
        # Pop order, the event count (which inline dispatch changes by
        # skipping callback entries) and peek must all agree with the
        # single-heap model, whichever tier each entry went through.
        expected = _drive_random_interleaving(_HeapModelKernel(), seed)
        assert _drive_random_interleaving(Simulator(), seed) == expected
