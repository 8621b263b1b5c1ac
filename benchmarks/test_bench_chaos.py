"""X12 -- chaos: resilience policies under injected faults.

The Catapult story (SI) is about taming tail latency and the
disaggregation premise (SIV.A.3) is that remote resources need a
*dependable* fabric. This exhibit injects calibrated faults -- replica
stragglers, flapping pool uplinks, host outages -- into live workloads
and measures how much of the damage the classic tail-tolerance
mechanisms (hedged requests, deadline + retry + failover, reschedule
around outages) recover, with the extra work they cost reported rather
than hidden. Asserts over the registered X12 entrypoint
(``python -m repro run X12``); the per-part exhibits exercise the chaos
workloads directly.
"""

from repro.reporting import render_table
from repro.runner import run_experiment
from repro.workloads import (
    memory_inputs,
    run_memory_chaos,
    run_scheduler_chaos,
    run_search_chaos,
    search_inputs,
)


def test_bench_chaos_exhibit(benchmark):
    result = benchmark(run_experiment, "X12")
    assert result.ok, result.error
    metrics = result.metrics
    print()
    print(render_table(
        ["part", "policy off", "policy on", "overhead"],
        [
            ["search availability",
             f"{metrics['search.off.availability']:.1%}",
             f"{metrics['search.hedged.availability']:.1%}",
             f"{metrics['search.hedge_overhead']:.1%} extra copies"],
            ["search p99 (ms)",
             metrics["search.off.p99_s"] * 1e3,
             metrics["search.hedged.p99_s"] * 1e3,
             f"{metrics['search.p99_recovery']:.1%} recovered"],
            ["memory availability",
             f"{metrics['memory.off.availability']:.1%}",
             f"{metrics['memory.resilient.availability']:.1%}",
             f"{metrics['memory.retry_overhead']:.1%} extra attempts"],
            ["scheduler makespan (s)",
             metrics["scheduler.makespan_s.healthy"],
             metrics["scheduler.makespan_s.outages"],
             f"{metrics['scheduler.wasted_executor_s']:.2f}s wasted"],
        ],
        title="X12: fault injection vs resilience policies",
    ))
    # Hedging recovers most of the straggler-inflated tail for a small
    # fraction of duplicated work -- the overhead is reported, not free.
    assert metrics["search.p99_recovery"] > 0.5
    assert 0.0 < metrics["search.hedge_overhead"] < 1.0
    assert (
        metrics["search.hedged.availability"]
        >= metrics["search.off.availability"]
    )
    # Deadline + retry + failover strictly beats single-shot reads under
    # the same flap schedule.
    assert metrics["memory.availability_gain"] > 0.0
    assert metrics["memory.resilient.availability"] > 0.99
    assert metrics["memory.retry_overhead"] > 0.0
    # Outages cost real reschedules and wasted executor-seconds, and the
    # scheduler routes around them rather than stalling.
    assert metrics["scheduler.tasks_rescheduled"] > 0
    assert metrics["scheduler.wasted_executor_s"] > 0.0
    assert (
        metrics["scheduler.makespan_s.outages"]
        >= metrics["scheduler.makespan_s.healthy"]
    )


def test_bench_chaos_search_policies(benchmark):
    def run():
        inputs = search_inputs(1_500, seed=0)
        return {
            policy: run_search_chaos(policy, seed=0, **inputs)
            for policy in ("off", "hedged")
        }

    parts = benchmark(run)
    rows = [
        [policy,
         f"{part['availability']:.1%}",
         part["p50_s"] * 1e3, part["p99_s"] * 1e3, part["p999_s"] * 1e3,
         f"{part['copies_per_request']:.3f}"]
        for policy, part in parts.items()
    ]
    print()
    print(render_table(
        ["policy", "avail", "p50 (ms)", "p99 (ms)", "p999 (ms)",
         "copies/req"],
        rows,
        title="X12a: search under replica stragglers",
    ))
    # Same fault schedule both runs (injector seed is independent of the
    # policy), so the comparison isolates the policy's effect.
    assert parts["off"]["n_faults"] == parts["hedged"]["n_faults"]
    assert parts["hedged"]["p99_s"] < parts["off"]["p99_s"]
    # Hedges fire only for straggling requests, not on every request.
    assert parts["hedged"]["copies_per_request"] < 1.5


def test_bench_chaos_memory_failover(benchmark):
    def run():
        return {
            policy: run_memory_chaos(
                policy, seed=0, **memory_inputs(1_000, seed=0)
            )
            for policy in ("off", "resilient")
        }

    parts = benchmark(run)
    rows = [
        [policy, part["completed"], part["failed"],
         f"{part['availability']:.1%}",
         f"{part['attempts_per_read']:.3f}"]
        for policy, part in parts.items()
    ]
    print()
    print(render_table(
        ["policy", "completed", "failed", "avail", "attempts/read"],
        rows,
        title="X12b: disaggregated-memory reads under uplink flaps",
    ))
    off, resilient = parts["off"], parts["resilient"]
    assert off["n_faults"] == resilient["n_faults"]
    # Without failover some reads are lost outright or blow the SLA;
    # with it every read lands.
    assert resilient["failed"] == 0
    assert resilient["availability"] > off["availability"]
    assert resilient["attempts_per_read"] > 1.0


def test_bench_chaos_scheduler_outages(benchmark):
    outcome = benchmark(run_scheduler_chaos, seed=0)
    print()
    print(render_table(
        ["metric", "healthy", "with outages"],
        [
            ["makespan (s)", outcome["makespan_s.healthy"],
             outcome["makespan_s.outages"]],
            ["mean completion (s)", outcome["mean_completion_s.healthy"],
             outcome["mean_completion_s.outages"]],
            ["tasks killed + rerun", 0, outcome["tasks_rescheduled"]],
            ["wasted executor-s", 0.0, outcome["wasted_executor_s"]],
        ],
        title="X12c: online scheduler around host outages",
    ))
    assert outcome["tasks_rescheduled"] > 0
    assert outcome["wasted_executor_s"] > 0.0
    # Outages hurt but never wedge the run: every job still finishes,
    # at a makespan within 2x of healthy.
    assert (
        outcome["makespan_s.outages"]
        < 2.0 * outcome["makespan_s.healthy"]
    )
