"""Determinism guarantees of the fast-path kernel (golden traces).

The kernel fast paths (inline ``Timeout`` triggering, single-callback
slots, direct heap entries) must not change *any* observable simulation
output. These tests pin that down three ways:

- the same seeded run produces identical results with and without an
  attached :class:`~repro.engine.Observability`;
- the production kernel reproduces the frozen pre-fast-path reference
  kernel (:mod:`repro._perfref`) event for event on E2's search
  workload -- a golden-trace comparison, exact to the last bit;
- a mixed workload (processes, resources, timeouts, ties) yields an
  identical event trace across kernels and across repeated runs;
- randomized processes that yield events which have already fired
  (free resource grants, pre-fired events, finished children) -- the
  case the kernel resumes inline -- trace identically to the reference
  kernel, and an ``on_event`` hook still sees every reference entry.
"""

import contextlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _perfref
from repro.engine import Observability, Resource, Simulator


def _run_e2(n_requests=400, observability=None):
    from repro.workloads.search import run_search_service

    scope = contextlib.nullcontext() if observability is None else observability
    with scope:
        result = run_search_service(
            qps=4000.0,
            n_requests=n_requests,
            accelerated=True,
        )
    return tuple(result.latencies_s)


def _run_e2_on(sim_cls, resource_cls, n_requests=400):
    import repro.workloads.search as search

    originals = (search.Simulator, search.Resource)
    search.Simulator, search.Resource = sim_cls, resource_cls
    try:
        return _run_e2(n_requests)
    finally:
        search.Simulator, search.Resource = originals


def _mixed_trace(sim_cls, resource_cls):
    """A seeded mixed workload; returns the full (time, label) trace."""
    sim = sim_cls()
    pool = resource_cls(sim, capacity=2)
    trace = []

    def worker(k):
        for i in range(6):
            yield pool.acquire()
            # Deliberate exact ties: several workers hold for the same
            # durations, so ordering rests purely on (when, seq).
            yield sim.timeout(0.25 * ((k + i) % 3))
            trace.append((sim.now, f"held-{k}"))
            pool.release()
            yield sim.timeout(0.125)
        trace.append((sim.now, f"done-{k}"))

    for k in range(5):
        sim.spawn(worker(k), name=f"w{k}")
    sim.run()
    return trace


class TestObservabilityNeutrality:
    def test_e2_latencies_identical_with_and_without_observability(self):
        bare = _run_e2()
        observed = _run_e2(observability=Observability())
        assert bare == observed  # bit-for-bit, not approx

    def test_mixed_trace_identical_with_observability(self):
        sim_plain = _mixed_trace(Simulator, Resource)

        def observed_cls():
            return Simulator(observability=Observability())

        sim_observed = _mixed_trace(lambda: observed_cls(), Resource)
        assert sim_plain == sim_observed


class TestGoldenTraceVsReferenceKernel:
    def test_e2_matches_frozen_reference_kernel(self):
        production = _run_e2_on(Simulator, Resource)
        reference = _run_e2_on(_perfref.Simulator, _perfref.Resource)
        assert production == reference  # golden trace, exact

    def test_mixed_trace_matches_reference_kernel(self):
        assert _mixed_trace(Simulator, Resource) == _mixed_trace(
            _perfref.Simulator, _perfref.Resource
        )

    def test_repeated_runs_are_identical(self):
        first = _run_e2()
        second = _run_e2()
        assert first == second


class TestTieBreaking:
    def test_equal_time_events_fire_in_creation_order(self):
        for sim_cls in (Simulator, _perfref.Simulator):
            sim = sim_cls()
            order = []
            for label in ("a", "b", "c", "d"):
                sim.timeout(1.0).add_callback(
                    lambda evt, label=label: order.append(label)
                )
            sim.run()
            assert order == ["a", "b", "c", "d"], sim_cls

    def test_clock_identical_across_kernels(self):
        def drive(sim_cls):
            sim = sim_cls()

            def proc():
                for i in range(50):
                    yield sim.timeout(0.1 + (i % 4) * 0.05)

            sim.spawn(proc())
            return sim.run()

        assert drive(Simulator) == drive(_perfref.Simulator)


#: Hold times drawn for the resume workload; the zero and the repeats
#: make exact-time ties common.
_DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5)
_STEPS = ("grant", "fired", "failed", "child", "sleep")


def _resume_plan(seed):
    """Per-worker step lists, drawn up front so both kernels replay them."""
    rng = random.Random(seed)
    return [
        [(rng.choice(_STEPS), rng.choice(_DELAYS), rng.choice(_DELAYS))
         for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(2, 6))
    ], rng.randint(1, 3)


def _resume_trace(sim_cls, resource_cls, seed, count_entries=False):
    """(time, label) trace of processes that often yield fired events.

    Returns ``(trace, hook_entries)``; ``hook_entries`` is ``None``
    unless an ``on_event`` hook counted the popped entries.
    """
    plans, capacity = _resume_plan(seed)
    sim = sim_cls()
    pool = resource_cls(sim, capacity=capacity)
    trace = []
    entries = [0]
    if count_entries:
        def hook(_when, _entry):
            entries[0] += 1

        sim.on_event = hook

    def child(label, delay):
        yield sim.timeout(delay)
        trace.append((sim.now, f"{label}-child"))
        return label

    def worker(k, plan):
        for j, (step, first, second) in enumerate(plan):
            label = f"w{k}.{j}-{step}"
            if step == "grant":
                yield pool.acquire()  # often free: already granted
                trace.append((sim.now, f"{label}-held"))
                yield sim.timeout(first)
                pool.release()
            elif step == "fired":
                evt = sim.event()
                evt.succeed(label)
                value = yield evt
                trace.append((sim.now, f"{value}-value"))
            elif step == "failed":
                evt = sim.event()
                evt.fail(ValueError(label))
                try:
                    yield evt
                except ValueError as exc:
                    trace.append((sim.now, f"{exc}-raised"))
            elif step == "child":
                handle = sim.spawn(child(label, first))
                # Waiting at least as long as the child runs means the
                # handle has usually finished by the time it is yielded.
                yield sim.timeout(second)
                value = yield handle
                trace.append((sim.now, f"{value}-joined"))
            else:
                yield sim.timeout(first)
            trace.append((sim.now, label))
        # A late spawn: new processes enter mid-run, at tied times.
        if k % 2 == 0 and plan:
            sim.spawn(child(f"w{k}-late", plan[0][1]))

    for k, plan in enumerate(plans):
        sim.spawn(worker(k, plan), name=f"w{k}")
    sim.run()
    return trace, entries[0] if count_entries else None


class TestInlineResume:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_fired_event_yields_trace_like_reference(self, seed):
        production, _ = _resume_trace(Simulator, Resource, seed)
        reference, _ = _resume_trace(_perfref.Simulator, _perfref.Resource,
                                     seed)
        assert production == reference

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_on_event_hook_sees_every_reference_entry(self, seed):
        # With a hook set the kernel resumes nothing inline, so the hook
        # sees exactly the entries the reference kernel pops.
        production = _resume_trace(Simulator, Resource, seed,
                                   count_entries=True)
        reference = _resume_trace(_perfref.Simulator, _perfref.Resource,
                                  seed, count_entries=True)
        assert production == reference

    def test_fired_yields_resume_without_a_calendar_entry(self):
        # Guards against the equivalence tests passing vacuously: a
        # process that yields only already-fired events runs to the end
        # inside its first step.
        sim = Simulator()
        pool = Resource(sim, capacity=1)
        done = sim.event()
        done.succeed()

        def proc():
            for _ in range(10):
                yield pool.acquire()
                pool.release()
                yield done
            return "end"

        handle = sim.spawn(proc())
        sim.run()
        assert handle.value == "end"
        assert sim.events_processed == 1  # the spawn entry alone
