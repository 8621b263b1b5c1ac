"""Tests for dynamic fault injection and the resilience primitives."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    FaultInjector,
    FaultSpec,
    RandomStream,
    Resource,
    RetryPolicy,
    Simulator,
    hedge_events,
    retry_events,
    with_deadline,
)
from repro.engine.resilience import ServiceCopy
from repro.engine.faults import (
    HOST_FAILURE,
    LINK_FLAP,
    STRAGGLER,
    SWITCH_CRASH,
    FaultEvent,
)
from repro.errors import (
    DeadlineExceeded,
    RetryExhausted,
    SimulationError,
    TopologyError,
)
from repro.network import leaf_spine
from repro.network.routing import ecmp_paths


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            FaultSpec(kind="gremlin", targets=("x",), mtbf_s=1.0, mttr_s=1.0)

    def test_needs_targets(self):
        with pytest.raises(SimulationError):
            FaultSpec(kind=STRAGGLER, targets=(), mtbf_s=1.0, mttr_s=1.0)

    def test_link_targets_must_be_pairs(self):
        with pytest.raises(SimulationError):
            FaultSpec(kind=LINK_FLAP, targets=("leaf0",), mtbf_s=1.0,
                      mttr_s=1.0)

    def test_rates_positive(self):
        with pytest.raises(SimulationError):
            FaultSpec(kind=STRAGGLER, targets=("x",), mtbf_s=0.0, mttr_s=1.0)

    def test_window_ordering(self):
        with pytest.raises(SimulationError):
            FaultSpec(kind=STRAGGLER, targets=("x",), mtbf_s=1.0, mttr_s=1.0,
                      start_s=5.0, end_s=5.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", [
        "mtbf_s", "mttr_s", "start_s", "end_s", "max_faults", "slowdown",
    ])
    def test_non_finite_numbers_rejected(self, field, value):
        # A NaN MTBF used to pass every ``<= 0`` check and then hang the
        # simulator it drove.
        kwargs = {"mtbf_s": 1.0, "mttr_s": 1.0, field: value}
        with pytest.raises(SimulationError, match=field):
            FaultSpec(kind=STRAGGLER, targets=("x",), **kwargs)

    def test_fabric_kind_needs_fabric(self):
        sim = Simulator()
        injector = FaultInjector(sim, seed=1)
        with pytest.raises(SimulationError):
            injector.install(
                FaultSpec(kind=SWITCH_CRASH, targets=("spine0",),
                          mtbf_s=1.0, mttr_s=1.0)
            )

    def test_unknown_link_rejected_at_install(self):
        sim = Simulator()
        injector = FaultInjector(sim, seed=1, fabric=leaf_spine(2, 2, 2))
        with pytest.raises(SimulationError):
            injector.install(
                FaultSpec(kind=LINK_FLAP, targets=(("leaf0", "leaf1"),),
                          mtbf_s=1.0, mttr_s=1.0)
            )


def _run_straggler_schedule(seed, *, order=("a", "b")):
    sim = Simulator()
    injector = FaultInjector(sim, seed=seed)
    for name in order:
        injector.install(
            FaultSpec(kind=STRAGGLER, targets=(name,), mtbf_s=2.0,
                      mttr_s=0.5, end_s=40.0)
        )
    sim.run()
    return [(e.target, e.down_s, e.up_s) for e in injector.events]


class TestInjectorSchedules:
    def test_deterministic_given_seed(self):
        assert _run_straggler_schedule(9) == _run_straggler_schedule(9)

    def test_seed_changes_schedule(self):
        assert _run_straggler_schedule(9) != _run_straggler_schedule(10)

    def test_install_order_does_not_matter(self):
        # Streams fork per (kind, target), so each target's schedule is
        # independent of when its spec was installed.
        forward = sorted(_run_straggler_schedule(9, order=("a", "b")))
        reverse = sorted(_run_straggler_schedule(9, order=("b", "a")))
        assert forward == reverse

    def test_window_respected(self):
        sim = Simulator()
        injector = FaultInjector(sim, seed=3)
        injector.install(
            FaultSpec(kind=STRAGGLER, targets=("w",), mtbf_s=1.0,
                      mttr_s=0.2, start_s=10.0, end_s=20.0)
        )
        sim.run()
        assert injector.events
        assert all(e.down_s >= 10.0 for e in injector.events)
        # Faults only *start* inside the window; repairs may run over.
        assert all(e.down_s < 20.0 for e in injector.events)

    def test_max_faults_caps_the_schedule(self):
        sim = Simulator()
        injector = FaultInjector(sim, seed=3)
        injector.install(
            FaultSpec(kind=STRAGGLER, targets=("w",), mtbf_s=0.5,
                      mttr_s=0.1, max_faults=3)
        )
        sim.run()
        assert len(injector.events) == 3

    def test_straggler_slowdown_visible_while_active(self):
        sim = Simulator()
        injector = FaultInjector(sim, seed=5)
        injector.install(
            FaultSpec(kind=STRAGGLER, targets=("w",), mtbf_s=1.0,
                      mttr_s=1.0, slowdown=8.0, max_faults=1)
        )
        seen = []

        def probe():
            while not injector.events:
                seen.append(injector.slowdown("w"))
                yield sim.timeout(0.05)

        sim.spawn(probe())
        sim.run()
        assert 8.0 in seen and 1.0 in seen
        assert injector.slowdown("w") == 1.0

    def test_host_failure_tracked(self):
        sim = Simulator()
        injector = FaultInjector(sim, seed=6)
        injector.install(
            FaultSpec(kind=HOST_FAILURE, targets=("host3",), mtbf_s=1.0,
                      mttr_s=0.5, max_faults=2)
        )
        down_samples = []

        def probe():
            while len(injector.events) < 2:
                down_samples.append(injector.is_down("host3"))
                yield d(sim)

        def d(s):
            return s.timeout(0.05)

        sim.spawn(probe())
        sim.run()
        assert [event.target for event in injector.events] == ["host3"] * 2
        assert True in down_samples and False in down_samples
        assert not injector.is_down("host3")
        assert injector.outage_windows(HOST_FAILURE) == injector.events


class TestFabricIntegration:
    def test_link_flap_mutates_and_restores_topology(self):
        fabric = leaf_spine(2, 2, 2)
        sim = Simulator()
        injector = FaultInjector(sim, seed=11, fabric=fabric)
        injector.install(
            FaultSpec(kind=LINK_FLAP, targets=(("leaf0", "spine0"),),
                      mtbf_s=1.0, mttr_s=1.0, max_faults=1)
        )
        states = []

        def probe():
            while not injector.events:
                states.append(fabric.link_is_up("leaf0", "spine0"))
                yield sim.timeout(0.05)

        sim.spawn(probe())
        sim.run()
        assert False in states  # observed down mid-run
        assert fabric.link_is_up("leaf0", "spine0")  # repaired at the end
        assert fabric.active_graph() is fabric.graph  # nothing left down

    def test_link_flap_invalidates_flow_capacity_cache(self):
        from repro.network.flows import _fabric_link_capacities

        fabric = leaf_spine(2, 2, 2)
        before = _fabric_link_capacities(fabric)
        assert _fabric_link_capacities(fabric) is before  # cache hit
        sim = Simulator()
        injector = FaultInjector(sim, seed=11, fabric=fabric)
        injector.install(
            FaultSpec(kind=LINK_FLAP, targets=(("leaf0", "spine0"),),
                      mtbf_s=1.0, mttr_s=1.0, max_faults=1)
        )
        caps_down = []

        def probe():
            while not injector.events:
                if not fabric.link_is_up("leaf0", "spine0"):
                    caps_down.append(_fabric_link_capacities(fabric))
                yield sim.timeout(0.05)

        sim.spawn(probe())
        sim.run()
        key = tuple(sorted(("leaf0", "spine0")))
        assert caps_down and key not in caps_down[0]
        after = _fabric_link_capacities(fabric)
        assert key in after and after == before

    def test_routing_reroutes_around_flapped_link(self):
        fabric = leaf_spine(2, 2, 2)
        assert len(ecmp_paths(fabric, "host0-0", "host1-0")) == 2
        sim = Simulator()
        injector = FaultInjector(sim, seed=11, fabric=fabric)
        injector.install(
            FaultSpec(kind=LINK_FLAP, targets=(("leaf0", "spine0"),),
                      mtbf_s=1.0, mttr_s=1.0, max_faults=1)
        )
        down_paths = []

        def probe():
            while not injector.events:
                if not fabric.link_is_up("leaf0", "spine0"):
                    down_paths.append(ecmp_paths(fabric, "host0-0", "host1-0"))
                yield sim.timeout(0.05)

        sim.spawn(probe())
        sim.run()
        assert down_paths
        for paths in down_paths:
            assert paths == [["host0-0", "leaf0", "spine1", "leaf1",
                              "host1-0"]]
        assert len(ecmp_paths(fabric, "host0-0", "host1-0")) == 2

    def test_switch_crash_can_partition_and_repair(self):
        fabric = leaf_spine(1, 2, 2)  # single spine: crashing it partitions
        sim = Simulator()
        injector = FaultInjector(sim, seed=2, fabric=fabric)
        injector.install(
            FaultSpec(kind=SWITCH_CRASH, targets=("spine0",), mtbf_s=1.0,
                      mttr_s=1.0, max_faults=1)
        )
        saw_partition = []

        def probe():
            while not injector.events:
                if injector.is_down("spine0"):
                    with pytest.raises(TopologyError):
                        ecmp_paths(fabric, "host0-0", "host1-0")
                    saw_partition.append(True)
                yield sim.timeout(0.05)

        sim.spawn(probe())
        sim.run()
        assert saw_partition
        assert ecmp_paths(fabric, "host0-0", "host1-0")


def _delays(policy, n_failures, rng=None):
    """The first ``n_failures`` backoff delays, in order."""
    return [policy.delay_s(i, rng) for i in range(1, n_failures + 1)]


class TestRetryPolicy:
    def test_backoff_schedule_grows_and_caps(self):
        policy = RetryPolicy(max_attempts=6, base_delay_s=0.1,
                             multiplier=2.0, max_delay_s=0.5)
        assert _delays(policy, 5) == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.25)
        a = _delays(policy, 50, RandomStream(4, "j"))
        b = _delays(policy, 50, RandomStream(4, "j"))
        assert a == b
        assert a != _delays(policy, 50, RandomStream(5, "j"))
        assert all(0.75 <= delay <= 1.25 for delay in a)

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.25)
        assert _delays(policy, 3) == [1.0, 1.0, 1.0]

    def test_validation(self):
        with pytest.raises(SimulationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SimulationError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(SimulationError):
            RetryPolicy(multiplier=0.0)


def _after(sim, delay_s, value=None, error=None):
    """An event that fires ``delay_s`` from now with ``value`` or ``error``."""
    if error is None:
        return sim.timeout(delay_s, value)
    outcome = sim.event()
    sim.timeout(delay_s).add_callback(lambda _evt: outcome.fail(error))
    return outcome


class TestRetry:
    def test_first_try_success_costs_nothing(self):
        sim = Simulator()
        gate = retry_events(sim, lambda _n: sim.timeout(0.25, "ok"))
        assert sim.run() == 0.25
        assert gate.value == "ok"

    def test_recovers_after_transient_failures_with_backoff(self):
        sim = Simulator()

        def attempt(number):
            if number < 3:
                return _after(sim, 0.1, error=RuntimeError("transient"))
            return _after(sim, 0.1, number)

        gate = retry_events(
            sim, attempt,
            RetryPolicy(max_attempts=5, base_delay_s=0.5, multiplier=2.0),
        )
        # 3 attempts x 0.1 plus backoffs 0.5 and 1.0 after the failures.
        assert sim.run() == pytest.approx(0.3 + 0.5 + 1.0)
        assert gate.value == 3

    def test_exhaustion_raises_with_attempt_count_and_cause(self):
        sim = Simulator()
        gate = retry_events(
            sim, lambda _n: _after(sim, 0.01, error=ValueError("always broken")),
            RetryPolicy(max_attempts=3),
        )
        sim.run()
        exc = gate._exception
        assert isinstance(exc, RetryExhausted)
        assert (exc.attempts, type(exc.__cause__).__name__) == (3, "ValueError")


class TestWithDeadline:
    def test_relays_success_inside_deadline(self):
        sim = Simulator()

        def driver():
            value = yield with_deadline(sim, sim.timeout(0.5, "v"), 1.0)
            return value

        handle = sim.spawn(driver())
        assert sim.run() == 1.0  # the abandoned timer still drains
        assert handle.value == "v"

    def test_expiry_raises_deadline_exceeded(self):
        sim = Simulator()

        def driver():
            try:
                yield with_deadline(sim, sim.event(), 0.75)
            except DeadlineExceeded as exc:
                return exc.deadline_s

        handle = sim.spawn(driver())
        sim.run()
        assert handle.value == 0.75

    def test_expiry_cancels_the_watched_event(self):
        sim = Simulator()
        watched = sim.event()

        def driver():
            try:
                yield with_deadline(sim, watched, 0.5)
            except DeadlineExceeded:
                return "expired"

        handle = sim.spawn(driver())
        sim.run()
        assert handle.value == "expired"
        assert watched.cancelled  # queue owners may now prune the waiter

    def test_negative_deadline_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            with_deadline(sim, sim.event(), -1.0)


def _hedge_copies(sim, copies, abandoned=None):
    """A ``hedge_events`` launch: copy ``i`` is ``_after(sim, *copies[i])``;
    abandoning it logs ``(i, now)`` to ``abandoned``."""

    def launch(index):
        def abandon(_cause):
            abandoned.append((index, sim.now))

        return _after(sim, *copies[index]), abandon

    return launch


class TestHedge:
    def test_fast_primary_never_hedges(self):
        sim = Simulator()
        gate = hedge_events(sim, _hedge_copies(sim, [(0.1, "fast")]),
                            delay_s=1.0)
        sim.run()
        assert gate.value.value == "fast"
        assert gate.value.winner == 0
        assert gate.value.launched == 1

    def test_winner_takes_all_and_loser_is_cancelled(self):
        sim = Simulator()
        abandoned = []
        finish = []
        # Copy 0 straggles; copy 1 is quick.
        gate = hedge_events(
            sim, _hedge_copies(sim, [(5.0, 0), (0.1, 1)], abandoned),
            delay_s=0.5,
        )
        gate.add_callback(lambda _gate: finish.append(sim.now))
        sim.run()
        outcome = gate.value
        assert (outcome.winner, outcome.value, outcome.launched) == (1, 1, 2)
        # Hedge fired at 0.5 and won at 0.6; the loser was abandoned at
        # 0.6, not left to its natural 5.0 completion.
        assert finish == [pytest.approx(0.6)]
        assert abandoned == [(0, pytest.approx(0.6))]

    def test_failed_copy_triggers_immediate_replacement(self):
        sim = Simulator()
        finish = []
        gate = hedge_events(
            sim,
            _hedge_copies(sim, [(0.1, None, RuntimeError("copy 0 dies")),
                                (0.1, 1)]),
            delay_s=9.0,
        )
        gate.add_callback(lambda _gate: finish.append(sim.now))
        sim.run()
        # Replacement launched at 0.1 (not at the 9.0 hedge delay).
        assert finish == [pytest.approx(0.2)]
        assert gate.value.winner == 1
        assert gate.value.launched == 2

    def test_all_copies_failing_raises_last_error(self):
        sim = Simulator()
        down = [(0.1, None, ValueError(f"down {i}")) for i in range(3)]
        gate = hedge_events(sim, _hedge_copies(sim, down), delay_s=0.05,
                            max_copies=3)
        sim.run()
        assert isinstance(gate._exception, ValueError)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            hedge_events(sim, _hedge_copies(sim, []), delay_s=0.1,
                         max_copies=0)
        with pytest.raises(SimulationError):
            hedge_events(sim, _hedge_copies(sim, []), delay_s=-0.1)


class TestSchedulerOutages:
    def test_merge_windows_coalesces_overlaps(self):
        from repro.scheduler.online import _merge_windows

        merged = _merge_windows([(5.0, 7.0), (1.0, 2.0), (1.5, 3.0),
                                 (3.0, 4.0)])
        assert merged == [(1.0, 4.0), (5.0, 7.0)]

    def test_next_free_interval_defers_inside_window(self):
        from repro.scheduler.online import _next_free_interval

        start, kills, wasted = _next_free_interval(
            2.5, 1.0, [(2.0, 4.0)]
        )
        assert (start, kills, wasted) == (4.0, 0, 0.0)

    def test_next_free_interval_kills_running_task(self):
        from repro.scheduler.online import _next_free_interval

        start, kills, wasted = _next_free_interval(
            1.0, 3.0, [(2.0, 4.0)]
        )
        assert (start, kills, wasted) == (4.0, 1, 1.0)

    def test_next_free_interval_fits_in_gap(self):
        from repro.scheduler.online import _next_free_interval

        start, kills, wasted = _next_free_interval(
            0.0, 1.5, [(2.0, 4.0)]
        )
        assert (start, kills, wasted) == (0.0, 0, 0.0)

    def test_run_shared_outages_deterministic_and_accounted(self):
        from repro.workloads.chaos import run_scheduler_chaos

        first = run_scheduler_chaos(n_jobs=12, seed=0)
        second = run_scheduler_chaos(n_jobs=12, seed=0)
        assert first == second
        assert first["tasks_rescheduled"] > 0
        assert first["wasted_executor_s"] > 0.0
        assert (
            first["makespan_s.outages"] >= first["makespan_s.healthy"]
        )


def _one_straggler_injector(seed, *, until=None):
    """One max_faults=1 straggler schedule, optionally stopped early."""
    sim = Simulator()
    injector = FaultInjector(sim, seed=seed)
    injector.install(
        FaultSpec(kind=STRAGGLER, targets=("w",), mtbf_s=2.0, mttr_s=1.0,
                  max_faults=1)
    )
    sim.run(until=until)
    return sim, injector


class TestOutageWindowBoundaries:
    """Regression: windows at the query horizon must clamp, never dangle.

    An outage still in progress at the horizon used to be invisible (or,
    when reported naively, open-ended). ``outage_windows`` must report
    it clamped to the horizon, and a repair landing *exactly at* the
    horizon must yield the same single ``[down, T]`` window whether the
    repair event has executed or is still pending -- one window, closed,
    never doubled.
    """

    def test_default_args_match_old_behavior(self):
        _, injector = _one_straggler_injector(11)
        event = injector.events[0]
        assert injector.outage_windows() == [event]
        assert injector.outage_windows(STRAGGLER) == [event]
        assert injector.outage_windows(LINK_FLAP) == []

    def test_active_outage_clamped_to_now(self):
        _, full = _one_straggler_injector(11)
        event = full.events[0]
        mid = (event.down_s + event.up_s) / 2
        sim, injector = _one_straggler_injector(11, until=mid)
        assert sim.now == mid
        assert injector.outage_windows() == []  # still open: not completed
        windows = injector.outage_windows(include_active=True)
        assert windows == [
            FaultEvent(STRAGGLER, "w", event.down_s, mid)
        ]

    def test_repair_exactly_at_horizon_yields_one_closed_window(self):
        _, full = _one_straggler_injector(11)
        event = full.events[0]
        # Events scheduled exactly at `until` execute, so the repair has
        # landed: the completed window must appear once, unclamped, with
        # no phantom active duplicate.
        _, injector = _one_straggler_injector(11, until=event.up_s)
        windows = injector.outage_windows(
            include_active=True, until=event.up_s
        )
        assert windows == [event]

    def test_pending_repair_at_horizon_yields_same_window(self):
        _, full = _one_straggler_injector(11)
        event = full.events[0]
        # Stop mid-outage; query "as of the repair time" anyway. The
        # still-open outage clamps to the same [down, up] the completed
        # run reports -- the boundary is consistent either way.
        _, injector = _one_straggler_injector(
            11, until=(event.down_s + event.up_s) / 2
        )
        windows = injector.outage_windows(
            include_active=True, until=event.up_s
        )
        assert windows == [event]

    def test_until_clamps_completed_windows(self):
        _, injector = _one_straggler_injector(11)
        event = injector.events[0]
        mid = (event.down_s + event.up_s) / 2
        assert injector.outage_windows(until=mid) == [
            FaultEvent(STRAGGLER, "w", event.down_s, mid)
        ]

    def test_zero_length_window_at_horizon_dropped(self):
        _, injector = _one_straggler_injector(11)
        event = injector.events[0]
        assert injector.outage_windows(until=event.down_s) == []
        assert injector.outage_windows(
            include_active=True, until=event.down_s
        ) == []

    def test_kind_filter_applies_to_active_outages(self):
        _, full = _one_straggler_injector(11)
        event = full.events[0]
        _, injector = _one_straggler_injector(
            11, until=(event.down_s + event.up_s) / 2
        )
        assert injector.outage_windows(
            LINK_FLAP, include_active=True
        ) == []
        assert len(injector.outage_windows(
            STRAGGLER, include_active=True
        )) == 1


class TestChaosDeterminism:
    def test_exhibit_is_reproducible(self):
        from repro.workloads import chaos_exhibit

        a = chaos_exhibit(n_requests=250, n_reads=200, n_jobs=6, seed=1)
        b = chaos_exhibit(n_requests=250, n_reads=200, n_jobs=6, seed=1)
        assert a == b

    def test_policies_rejected_when_unknown(self):
        from repro.errors import ModelError
        from repro.workloads import (
            memory_inputs,
            run_memory_chaos,
            run_search_chaos,
            search_inputs,
        )

        with pytest.raises(ModelError):
            run_search_chaos("bogus", **search_inputs(10, seed=0))
        with pytest.raises(ModelError):
            run_memory_chaos("bogus", **memory_inputs(10, seed=0))

    def test_empty_arrivals_rejected(self):
        from repro.errors import ModelError
        from repro.workloads import run_memory_chaos, run_search_chaos

        with pytest.raises(ModelError, match="no search arrivals"):
            run_search_chaos("off", [], [], [], fault_end_s=1.0)
        with pytest.raises(ModelError, match="no memory arrivals"):
            run_memory_chaos("off", [], fault_end_s=1.0, backoff_stream="b")

    def test_memory_inputs_are_reusable(self):
        from repro.workloads import memory_inputs, run_memory_chaos

        # The inputs are plain data and the runner builds its own backoff
        # stream, so a second run on the same inputs repeats the first.
        inputs = memory_inputs(200, seed=3)
        first = run_memory_chaos("resilient", seed=3, **inputs)
        assert run_memory_chaos("resilient", seed=3, **inputs) == first


# ---------------------------------------------------------------------------
# Event forms against process forms.
# ---------------------------------------------------------------------------
#
# The reference runs each hedged copy or retried attempt as a process:
# ``hedge_events``/``retry_events`` drive launches that spawn
# :func:`_process_copy`/:func:`_process_attempt` under :func:`_spawned`.
# Hypothesis draws the structure (capacities, how many calls, copies and
# attempts, which attempts fail, whether a deadline applies) and a seed;
# the times themselves come from that seed as continuous draws. The two
# forms take different numbers of same-instant calendar hops to do the
# same work (a process copy needs a spawn entry before it acquires), so
# they agree wherever no two independent events share a timestamp; the
# named cases below pin the ties that are part of the semantics.


def _spawned(sim, generator):
    """Spawn ``generator``; returns an event with its result or failure."""
    outcome = sim.event()

    def guarded():
        try:
            result = yield from generator
        except Exception as exc:  # noqa: BLE001 - delivered to the gate
            outcome.fail(exc)
            return
        outcome.succeed(result)

    sim.spawn(guarded())
    return outcome


class _CopyState:
    """What a process copy shares with the launch that can abandon it."""

    def __init__(self):
        self.grant = None
        self.abandoned = False


def _process_copy(sim, resource, duration, state):
    """A hedged copy as a process: queue, serve, release.

    An abandoned copy returns at its next step without touching the
    resource again: :func:`_abandon_copy` already dequeued it or gave
    its slot back.
    """
    if state.abandoned:
        return
    state.grant = resource.acquire()
    yield state.grant
    if state.abandoned:
        return
    yield sim.timeout(duration)
    if not state.abandoned:
        resource.release()


def _abandon_copy(resource, state):
    """Abandon a process copy: cancel its queued acquire, or release the
    slot it holds."""
    state.abandoned = True
    grant = state.grant
    if grant is None:
        return  # not stepped yet
    if grant.triggered:
        resource.release()
    else:
        grant.cancel()


def _holder(sim, resource, start, hold):
    yield sim.timeout(start)
    yield resource.acquire()
    yield sim.timeout(hold)
    resource.release()


def _record_states(sim, resource):
    """Run ``sim`` one instant at a time and log ``(time, in_use,
    queue_length)`` whenever a settled instant leaves the resource in a
    new state; the log opens with the pre-run ``(None, ...)`` sample."""
    log = [(None, resource.in_use, resource.queue_length)]
    while (instant := sim.peek()) is not None:
        sim.run(until=instant)
        state = (resource.in_use, resource.queue_length)
        if log[-1][1:] != state:
            log.append((instant,) + state)
    return log


def _run_hedged_calls(form, capacity, holders, calls):
    """Hedged calls over one resource; returns (per-call results, states).

    Each call is a ``hedge_events`` gate whose copies are
    :class:`ServiceCopy` chains (``form="event"``) or
    :func:`_process_copy` processes (``form="process"``). Each call
    ``(arrival, delay, durations)`` starts from a timeout callback at
    its arrival and may launch one copy per duration.
    """
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    for start, hold in holders:
        sim.spawn(_holder(sim, resource, start, hold))
    results = {}

    def begin(index, delay, durations):
        def launch(copy):
            if form == "event":
                served = ServiceCopy(sim, resource, lambda: durations[copy])
                return served, served.cancel
            state = _CopyState()
            outcome = _spawned(
                sim, _process_copy(sim, resource, durations[copy], state)
            )
            return outcome, lambda _cause: _abandon_copy(resource, state)

        def record(gate):
            outcome = gate.value
            results[index] = (sim.now, outcome.winner, outcome.launched)

        gate = hedge_events(sim, launch, delay, max_copies=len(durations))
        gate.add_callback(record)

    for index, (arrival, delay, durations) in enumerate(calls):
        sim.timeout(arrival).add_callback(
            lambda _evt, i=index, d=delay, ds=durations: begin(i, d, ds)
        )
    states = _record_states(sim, resource)
    return results, states


def _event_attempt(sim, spec, deadline):
    kind, duration = spec
    if kind == "fault":
        return sim.event().fail(RuntimeError("fault at start"))
    if kind == "ok":
        done = sim.timeout(duration, "ok")
    else:
        done = sim.event()
        sim.timeout(duration).add_callback(
            lambda _evt: done.fail(RuntimeError("failed"))
        )
    return done if deadline is None else with_deadline(sim, done, deadline)


def _process_attempt(sim, spec, deadline):
    kind, duration = spec
    if kind == "fault":
        raise RuntimeError("fault at start")
    if deadline is None:
        yield sim.timeout(duration)
    else:
        yield with_deadline(sim, sim.timeout(duration), deadline)
    if kind == "fail":
        raise RuntimeError("failed")
    return "ok"


def _run_retry(form, specs, deadline, policy):
    """One retried call; returns (finish time, value or exhausted attempts).

    Attempts are event chains (``form="event"``) or
    :func:`_process_attempt` processes (``form="process"``); retry never
    abandons an attempt, so a process needs no way to be stopped.
    """
    sim = Simulator()
    result = []

    def launch(number):
        spec = specs[number - 1]
        if form == "event":
            return _event_attempt(sim, spec, deadline)
        return _spawned(sim, _process_attempt(sim, spec, deadline))

    def record(gate):
        if gate._exception is not None:
            result.append((sim.now, "exhausted", gate._exception.attempts))
        else:
            result.append((sim.now, gate.value))

    retry_events(
        sim, launch, policy, rng=RandomStream(7, "retry.backoff")
    ).add_callback(record)
    sim.run()
    return result


class TestEventFormsMatchProcessForms:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        capacity=st.integers(min_value=1, max_value=3),
        n_holders=st.integers(min_value=0, max_value=4),
        copies_per_call=st.lists(st.integers(min_value=1, max_value=3),
                                 min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_hedge_over_a_resource(self, seed, capacity, n_holders,
                                   copies_per_call):
        draw = random.Random(seed).uniform
        holders = [(draw(0, 3), draw(0.1, 2)) for _ in range(n_holders)]
        calls = [
            (draw(0, 3), draw(0.05, 1.5), [draw(0.1, 2) for _ in range(n)])
            for n in copies_per_call
        ]
        event = _run_hedged_calls("event", capacity, holders, calls)
        process = _run_hedged_calls("process", capacity, holders, calls)
        assert event == process
        assert len(event[0]) == len(calls)
        assert event[1][-1][1:] == (0, 0)  # no slot leaks, no waiter left

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kinds=st.lists(st.sampled_from(["fault", "fail", "ok"]),
                       min_size=1, max_size=4),
        with_deadline_s=st.booleans(),
        jitter=st.sampled_from([0.0, 0.3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_retry(self, seed, kinds, with_deadline_s, jitter):
        draw = random.Random(seed).uniform
        specs = [(kind, draw(0.05, 2)) for kind in kinds]
        deadline = draw(0.05, 2) if with_deadline_s else None
        policy = RetryPolicy(max_attempts=len(specs),
                             base_delay_s=draw(0.05, 1), jitter=jitter)
        assert _run_retry("event", specs, deadline, policy) == _run_retry(
            "process", specs, deadline, policy
        )

    def test_deadline_tie_goes_to_the_attempt(self):
        # The attempt's timeout is created before the deadline timer.
        for form in ("event", "process"):
            assert _run_retry(
                form, [("ok", 1.0)], 1.0, RetryPolicy(max_attempts=1)
            ) == [(1.0, "ok")]

    def test_loser_cancelled_while_queued_at_the_winners_time(self):
        # One slot: copy 0 holds it; copy 1 (hedged at 1.0) queues behind
        # it and leaves the queue when copy 0 finishes at 2.0.
        for form in ("event", "process"):
            results, states = _run_hedged_calls(
                form, 1, [], [(0.0, 1.0, [2.0, 0.5])]
            )
            assert results == {0: (2.0, 0, 2)}
            assert states == [(None, 0, 0), (0.0, 1, 0), (1.0, 1, 1),
                              (2.0, 0, 0)]

    def test_loser_released_while_in_service_at_the_winners_time(self):
        # Two slots: copy 0 straggles (5.0); copy 1, hedged at 1.0, wins
        # at 1.5 and copy 0 gives its slot back at that same instant.
        for form in ("event", "process"):
            results, states = _run_hedged_calls(
                form, 2, [], [(0.0, 1.0, [5.0, 0.5])]
            )
            assert results == {0: (1.5, 1, 2)}
            assert states == [(None, 0, 0), (0.0, 1, 0), (1.0, 2, 0),
                              (1.5, 0, 0)]

    def test_copy_finishing_at_the_hedge_time_still_launches_the_hedge(self):
        # Copy 0's finish at 1.0 reaches the gate one entry later, so the
        # hedge timer due at 1.0 launches copy 1 first.
        for form in ("event", "process"):
            results, _ = _run_hedged_calls(form, 2, [], [(0.0, 1.0, [1.0, 3.0])])
            assert results == {0: (1.0, 0, 2)}

    def test_loser_granted_in_the_winners_instant_gives_the_slot_back(self):
        # Two slots, filled by a holder and copy 0, both ending at 2.0:
        # queued copy 1 is granted and abandoned in the same instant.
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        sim.spawn(_holder(sim, resource, 0.0, 2.0))
        served = []

        def launch(copy):
            served.append(ServiceCopy(sim, resource, lambda: (2.0, 1.0)[copy]))
            return served[-1], served[-1].cancel

        gate = hedge_events(sim, launch, 0.5)
        sim.run()
        assert (gate.value.winner, gate.value.launched) == (0, 2)
        assert served[1].cancelled and not served[1].triggered
        assert (resource.in_use, resource.queue_length) == (0, 0)


class TestChaosSpawnsNoProcessPerCopy:
    """Requests, hedged copies and retried attempts are event chains,
    not processes."""

    @staticmethod
    def _spawned(monkeypatch, run):
        names = []
        spawn = Simulator.spawn

        def counting_spawn(sim, generator, name=""):
            names.append(name)
            return spawn(sim, generator, name)

        monkeypatch.setattr(Simulator, "spawn", counting_spawn)
        run()
        return names

    @pytest.mark.parametrize("policy", ["off", "hedged"])
    def test_search_spawns_only_fault_processes(self, monkeypatch, policy):
        from repro.workloads.chaos import run_search_chaos, search_inputs

        names = self._spawned(monkeypatch, lambda: run_search_chaos(
            policy, seed=0, **search_inputs(600, seed=0)))
        # One straggler schedule per odd replica.
        assert names == [f"fault.straggler.replica{i}" for i in (1, 3, 5)]

    @pytest.mark.parametrize("policy", ["off", "resilient"])
    def test_memory_spawns_only_fault_processes(self, monkeypatch, policy):
        from repro.workloads.chaos import memory_inputs, run_memory_chaos

        names = self._spawned(monkeypatch, lambda: run_memory_chaos(
            policy, seed=0, **memory_inputs(400, seed=0)))
        assert len(names) == 4  # one flap schedule per spine uplink
        assert all(name.startswith("fault.link-flap.") for name in names)
