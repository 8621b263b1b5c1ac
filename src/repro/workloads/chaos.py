"""Chaos experiment X12: workloads under injected faults, with and
without resilience policies.

The paper's disaggregation premise (§IV.A.3) is that remote resources
are only usable if the fabric is *dependable*; its Catapult story (§II)
is about taming tail latency. This module closes the loop on both: it
runs calibrated fault schedules (:mod:`repro.engine.faults`) against
live workloads and measures how much of the damage the classic
tail-tolerance mechanisms (:mod:`repro.engine.resilience`) recover --
reporting the overhead they cost, not just the latency they save.

Three parts, all deterministic given the seed:

- :func:`run_search_chaos` -- an E2-style replicated search backend
  where some replicas intermittently straggle; policy ``"hedged"``
  issues a speculative second copy to another replica after a delay
  (first-wins, loser leaves the pool), policy ``"off"`` rides out the
  stragglers.
- :func:`run_memory_chaos` -- E8-style reads from disaggregated memory
  pools over a :func:`~repro.network.topology.disaggregated_fabric`
  whose pool uplinks flap; policy ``"resilient"`` wraps each read in a
  deadline plus jittered-backoff retries that fail over to a replica
  pool, policy ``"off"`` issues one read and fails when no path exists.
- :func:`run_scheduler_chaos` -- the online shared scheduler's job
  stream with and without host outage windows, counting killed task
  executions and wasted executor-seconds.

The search and memory runners are the only simulation bodies for
both chaos exhibits: they take their arrival times as input and inject
them with ``Simulator.schedule_batch``. X12 feeds them constant-rate
Poisson inputs drawn up front (:func:`search_inputs`,
:func:`memory_inputs`); X17 (:mod:`repro.workloads.scenario`) feeds them
scenario traces.

Latency percentiles (p50/p99/p999) are computed only over completed
requests; ``availability`` is the fraction of requests that completed
within the part's SLA, so a policy cannot hide failures by dropping
them. Overhead is reported as extra hedge copies and retry attempts.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.engine import (
    Event,
    FaultInjector,
    FaultSpec,
    RandomStream,
    Resource,
    RetryPolicy,
    Simulator,
    with_deadline,
)
from repro.engine.faults import LINK_FLAP, STRAGGLER
from repro.engine.resilience import ServiceCopy, hedge_events, retry_events
from repro.errors import FaultError, ModelError, TopologyError

#: Policies understood by the search part.
SEARCH_POLICIES = ("off", "hedged")
#: Policies understood by the disaggregated-memory part.
MEMORY_POLICIES = ("off", "resilient")
#: Replicas of the search backend; X17 gives each one a client id.
N_REPLICAS = 6


def latency_summary(latencies_s: List[float]) -> Dict[str, float]:
    """p50/p99/p999 and the mean of a latency sample (seconds)."""
    if not latencies_s:
        raise ModelError("no completed requests to summarize")
    array = np.asarray(latencies_s, dtype=np.float64)
    return {
        "p50_s": float(np.percentile(array, 50)),
        "p99_s": float(np.percentile(array, 99)),
        "p999_s": float(np.percentile(array, 99.9)),
        "mean_s": float(array.mean()),
    }


def _check_inputs(
    part: str, policy: str, policies: Tuple[str, ...], arrivals_s: Sequence[float]
) -> int:
    """Validate one runner's policy and arrivals; returns the arrival count."""
    if policy not in policies:
        raise ModelError(
            f"unknown {part} policy {policy!r}; expected one of {policies}"
        )
    if len(arrivals_s) == 0:
        raise ModelError(f"no {part} arrivals; widen the horizon")
    return len(arrivals_s)


def _poisson_arrivals(
    stream: RandomStream, n: int, rate_hz: float
) -> List[float]:
    """``n`` constant-rate Poisson arrival times, the first at 0.0.

    Gaps are drawn one at a time and accumulated in plain Python, so the
    times equal those of a source process that spawns a request and then
    sleeps for one exponential gap.
    """
    times: List[float] = []
    t = 0.0
    for _ in range(n):
        times.append(t)
        t += stream.exponential(1.0 / rate_hz)
    return times


# ---------------------------------------------------------------------------
# Part A: replicated search backend under stragglers (hedging).
# ---------------------------------------------------------------------------


def search_inputs(
    n_requests: int,
    seed: int,
    qps: float = 900.0,
    service_median_s: float = 2.0e-3,
    service_sigma: float = 0.35,
) -> Dict[str, Any]:
    """X12's constant-rate search inputs: keyword arguments for
    :func:`run_search_chaos`.

    Each input comes from its own named stream
    (``chaos.search.{arrivals,placement,service}``). The primary is drawn
    with ``integer(0, N_REPLICAS - 1)``, which is half-open: primaries
    are uniform over replicas ``0 .. N_REPLICAS - 2``, and the last
    replica only ever serves hedge copies from its neighbour. Faults
    stop starting at the nominal end of the stream, ``n_requests / qps``.
    """
    placement = RandomStream(seed, "chaos.search.placement")
    service = RandomStream(seed, "chaos.search.service")
    return {
        "arrivals_s": _poisson_arrivals(
            RandomStream(seed, "chaos.search.arrivals"), n_requests, qps
        ),
        "primaries": [
            placement.integer(0, N_REPLICAS - 1) for _ in range(n_requests)
        ],
        "base_service_s": [
            service.lognormal(service_median_s, service_sigma)
            for _ in range(n_requests)
        ],
        "fault_end_s": n_requests / qps,
    }


def run_search_chaos(
    policy: str,
    arrivals_s: Sequence[float],
    primaries: Sequence[int],
    base_service_s: Sequence[float],
    fault_end_s: float,
    replica_slots: int = 4,
    hedge_delay_s: float = 8.0e-3,
    sla_s: float = 0.025,
    straggler_slowdown: float = 12.0,
    straggler_mtbf_s: float = 0.8,
    straggler_mttr_s: float = 0.25,
    seed: int = 0,
) -> Dict[str, Any]:
    """One search run under straggler faults; returns headline metrics.

    Request ``i`` arrives at ``arrivals_s[i]`` (ascending; bulk-injected
    with ``schedule_batch``) and needs ``base_service_s[i]`` on replica
    ``primaries[i]`` (one of ``0 .. N_REPLICAS - 1``). With
    ``policy="hedged"`` a second copy goes to the *next* replica if the
    primary has not answered within ``hedge_delay_s`` (the loser leaves
    its replica's queue or releases its slot when the winner finishes).
    Copies are :class:`~repro.engine.resilience.ServiceCopy` event
    chains, so no request is a process.
    Half the replicas carry a straggler fault schedule that stops
    starting new episodes at ``fault_end_s``, so hedging onto the
    neighbour recovers the tail whenever the neighbour is healthy.
    """
    n_requests = _check_inputs("search", policy, SEARCH_POLICIES, arrivals_s)
    sim = Simulator()
    injector = FaultInjector(sim, seed=seed + 101)
    replicas = [f"replica{i}" for i in range(N_REPLICAS)]
    # Odd replicas straggle; even replicas stay healthy, so every
    # straggler's hedge neighbour (i + 1 mod n) is clean.
    # Faults stop *starting* once the arrival stream ends, otherwise the
    # injector's flap processes would keep the simulation alive forever.
    injector.install(
        FaultSpec(
            kind=STRAGGLER,
            targets=tuple(replicas[1::2]),
            mtbf_s=straggler_mtbf_s,
            mttr_s=straggler_mttr_s,
            slowdown=straggler_slowdown,
            end_s=fault_end_s,
        )
    )
    pools = {
        name: Resource(sim, capacity=replica_slots) for name in replicas
    }
    latencies: List[float] = []
    copies_launched = [0]

    def service_s(replica: str, base_s: float) -> float:
        """A copy's service time, sampled when it is granted a slot.

        That is the straggler model: a request that starts on a
        degraded replica is slow end to end.
        """
        return base_s * injector.slowdown(replica)

    def serve_on(replica: str, base_s: float) -> ServiceCopy:
        """One copy on one replica: queue for a slot, serve, release."""
        copies_launched[0] += 1
        return ServiceCopy(
            sim, pools[replica], partial(service_s, replica, base_s)
        )

    def launch(primary: int, base_s: float, copy: int):
        """Hedge copy ``copy`` goes to the replica after the previous one."""
        served = serve_on(replicas[(primary + copy) % N_REPLICAS], base_s)
        return served, served.cancel

    def done(arrived_s: float, _finished) -> None:
        latencies.append(sim.now - arrived_s)

    def admit(index: int) -> None:
        primary = int(primaries[index])
        base_s = float(base_service_s[index])
        if policy == "off":
            finished = serve_on(replicas[primary], base_s)
        else:
            finished = hedge_events(
                sim, partial(launch, primary, base_s),
                delay_s=hedge_delay_s, max_copies=2, name="search.hedge",
            )
        finished.add_callback(partial(done, sim.now))

    sim.schedule_batch(arrivals_s, admit)
    sim.run()
    if len(latencies) != n_requests:
        raise ModelError("not all search requests completed")
    summary = latency_summary(latencies)
    within_sla = sum(1 for latency in latencies if latency <= sla_s)
    return {
        "policy": policy,
        "n_requests": n_requests,
        "availability": within_sla / n_requests,
        "copies_per_request": copies_launched[0] / n_requests,
        "n_faults": len(injector.events),
        **summary,
    }


# ---------------------------------------------------------------------------
# Part B: disaggregated-memory reads over a flapping fabric
# (deadline + retry + failover).
# ---------------------------------------------------------------------------


def memory_inputs(
    n_reads: int, seed: int, read_rate_hz: float = 400.0
) -> Dict[str, Any]:
    """X12's constant-rate memory inputs: keyword arguments for
    :func:`run_memory_chaos`.

    Arrivals come from ``chaos.memory.arrivals`` and the retry backoff
    from ``chaos.memory.backoff``. Flaps stop starting at
    ``n_reads / read_rate_hz``.
    """
    return {
        "arrivals_s": _poisson_arrivals(
            RandomStream(seed, "chaos.memory.arrivals"), n_reads, read_rate_hz
        ),
        "fault_end_s": n_reads / read_rate_hz,
        "backoff_stream": "chaos.memory.backoff",
    }


def run_memory_chaos(
    policy: str,
    arrivals_s: Sequence[float],
    fault_end_s: float,
    backoff_stream: str,
    read_bytes: float = 1.0e6,
    base_latency_s: float = 1.0e-4,
    deadline_s: float = 1.3e-3,
    sla_s: float = 3.0e-3,
    flap_mtbf_s: float = 0.6,
    flap_mttr_s: float = 0.35,
    max_attempts: int = 4,
    seed: int = 0,
) -> Dict[str, Any]:
    """Reads from remote memory while the primary pool's uplinks flap.

    Read ``i`` arrives at ``arrivals_s[i]`` (ascending; bulk-injected
    with ``schedule_batch``). The fabric is a 4-spine composable rack
    with two memory pools. Every ``spine--mem-pool0`` uplink carries an
    independent flap schedule that stops starting new flaps at
    ``fault_end_s``, so the *primary* pool is usually degraded (fewer
    surviving ECMP paths, modelled as proportionally less effective
    bandwidth because the pool's aggregate load concentrates on the
    survivors) and occasionally unreachable. Policy ``"off"`` issues a
    single read against mem-pool0, rides out the slowdown, and gives up
    when no path exists; ``"resilient"`` puts a deadline on every
    transfer and retries with jittered exponential backoff drawn from a
    fresh ``RandomStream(seed, backoff_stream)``, failing over to the
    replica ``mem-pool1`` (whose uplinks never flap) on odd attempts.
    """
    n_reads = _check_inputs("memory", policy, MEMORY_POLICIES, arrivals_s)
    from repro.network.routing import ecmp_paths, path_bottleneck_gbps
    from repro.network.topology import disaggregated_fabric

    n_spines = 4
    fabric = disaggregated_fabric(
        n_cpu_pools=2, n_mem_pools=2, n_storage_pools=1, n_spines=n_spines,
        pool_gbps=10.0,
    )
    sim = Simulator()
    injector = FaultInjector(sim, seed=seed + 202, fabric=fabric)
    # Bounded to the arrival horizon so the run drains (see Part A).
    injector.install(
        FaultSpec(
            kind=LINK_FLAP,
            targets=tuple(
                (f"spine{s}", "mem-pool0") for s in range(n_spines)
            ),
            mtbf_s=flap_mtbf_s,
            mttr_s=flap_mttr_s,
            end_s=fault_end_s,
        )
    )
    backoff = RandomStream(seed, backoff_stream)
    retry_policy = RetryPolicy(
        max_attempts=max_attempts, base_delay_s=2.5e-4, multiplier=2.0,
        jitter=0.3,
    )
    latencies: List[float] = []
    failures = [0]
    attempts_issued = [0]
    durations: Dict[Tuple[str, int], float] = {}

    def transfer_duration_s(pool: str) -> float:
        """Duration of one read, sampled when the transfer starts.

        Effective bandwidth is the path bottleneck scaled by the
        fraction of ECMP paths still alive; a flap landing mid-transfer
        does not retroactively slow a read (the deadline in the
        resilient policy is what bounds the damage). Raises
        :class:`FaultError` when the pool is unreachable. The duration
        depends only on the pool and the fabric's state version, so it
        is computed once per ``(pool, version)``; every call still
        counts as an attempt.
        """
        attempts_issued[0] += 1
        key = (pool, fabric.state_version)
        duration = durations.get(key)
        if duration is None:
            try:
                paths = ecmp_paths(fabric, "cpu-pool0", pool)
            except TopologyError as exc:
                raise FaultError(f"{pool} unreachable: {exc}") from exc
            gbps = path_bottleneck_gbps(fabric, paths[0])
            effective_gbps = gbps * len(paths) / n_spines
            duration = base_latency_s + read_bytes * 8.0 / (effective_gbps * 1e9)
            durations[key] = duration
        return duration

    def request(arrived_s: float):
        try:
            duration = transfer_duration_s("mem-pool0")
        except FaultError:
            failures[0] += 1
            return
        yield sim.timeout(duration)
        latencies.append(sim.now - arrived_s)

    def attempt(number: int) -> Event:
        """Attempt ``number`` of a resilient read, bounded by the deadline.

        Failover: even attempts go to the replica pool. An unreachable
        pool fails the attempt at once.
        """
        pool = "mem-pool0" if number % 2 else "mem-pool1"
        try:
            duration = transfer_duration_s(pool)
        except FaultError as exc:
            return sim.event().fail(exc)
        return with_deadline(sim, sim.timeout(duration), deadline_s)

    def done(arrived_s: float, read: Event) -> None:
        if read._exception is not None:  # RetryExhausted
            failures[0] += 1
        else:
            latencies.append(sim.now - arrived_s)

    def admit(index: int) -> None:
        if policy == "off":
            sim.spawn(request(sim.now), name=f"memory.req{index}")
            return
        read = retry_events(
            sim, attempt, retry_policy, rng=backoff, name="memory.retry"
        )
        read.add_callback(partial(done, sim.now))

    sim.schedule_batch(arrivals_s, admit)
    sim.run()
    completed = len(latencies)
    if completed + failures[0] != n_reads:
        raise ModelError("memory requests lost by the chaos harness")
    within_sla = sum(1 for latency in latencies if latency <= sla_s)
    metrics: Dict[str, Any] = {
        "policy": policy,
        "n_reads": n_reads,
        "completed": completed,
        "failed": failures[0],
        "availability": within_sla / n_reads,
        "attempts_per_read": attempts_issued[0] / n_reads,
        "n_faults": len(injector.events),
    }
    if completed:
        metrics.update(latency_summary(latencies))
    return metrics


# ---------------------------------------------------------------------------
# Part C: online scheduler under host outages.
# ---------------------------------------------------------------------------


def run_scheduler_chaos(
    n_jobs: int = 24,
    mean_interarrival_s: float = 0.4,
    n_records: int = 400_000_000,
    outage_every_s: float = 3.0,
    outage_length_s: float = 1.0,
    n_outages: int = 4,
    seed: int = 0,
) -> Dict[str, Any]:
    """Shared-pool scheduling with and without host outage windows.

    ``hostA`` (holding half the executors) goes down for
    ``outage_length_s`` every ``outage_every_s``; tasks caught mid-run
    are killed and restarted, tasks not yet started route around the
    outage via EFT. Deterministic: the outage grid is fixed, not
    sampled.
    """
    from repro.node import nvidia_k80, xeon_e5
    from repro.scheduler import (
        Executor,
        HostOutage,
        OnlineScheduler,
        chain_job,
        poisson_job_stream,
    )

    scheduler = OnlineScheduler([
        Executor("cpu0", "hostA", xeon_e5()),
        Executor("gpu0", "hostA", nvidia_k80()),
        Executor("cpu1", "hostB", xeon_e5()),
        Executor("gpu1", "hostB", nvidia_k80()),
    ])
    stream = poisson_job_stream(
        n_jobs,
        mean_interarrival_s,
        lambda index: chain_job(
            f"job{index}",
            ["filter-scan", "hash-join", "sort"],
            n_records + (n_records // 16) * (index % 5),
        ),
        seed=31 + seed,
    )
    outages = [
        HostOutage(
            "hostA",
            start_s=outage_every_s * (k + 1),
            end_s=outage_every_s * (k + 1) + outage_length_s,
        )
        for k in range(n_outages)
    ]
    healthy = scheduler.run_shared(stream)
    degraded = scheduler.run_shared(stream, outages=outages)
    return {
        "n_jobs": n_jobs,
        "makespan_s.healthy": healthy.makespan_s,
        "makespan_s.outages": degraded.makespan_s,
        "mean_completion_s.healthy": healthy.mean_completion_time_s,
        "mean_completion_s.outages": degraded.mean_completion_time_s,
        "tasks_rescheduled": degraded.rescheduled,
        "wasted_executor_s": degraded.wasted_s,
    }


# ---------------------------------------------------------------------------
# The assembled exhibit.
# ---------------------------------------------------------------------------


def chaos_exhibit(
    n_requests: int = 4_000,
    n_reads: int = 2_500,
    n_jobs: int = 24,
    seed: int = 0,
) -> Dict[str, Any]:
    """Run all three chaos parts, policies off and on; returns metrics.

    The headline comparisons:

    - ``search.p99_recovery``: fraction of the straggler-inflated p99
      that hedging recovers (1.0 would mean the chaotic p99 matches the
      policy-on p99 of zero extra copies -- impossible; honest values
      land well below).
    - ``memory.availability`` off vs resilient: the dependable-fabric
      premise, quantified.
    - ``scheduler.tasks_rescheduled`` / ``wasted_executor_s``: the cost
      of host outages the scheduler routed around.
    """
    metrics: Dict[str, Any] = {}

    search = search_inputs(n_requests, seed)
    for policy in SEARCH_POLICIES:
        part = run_search_chaos(policy, seed=seed, **search)
        for key, value in part.items():
            if key != "policy":
                metrics[f"search.{policy}.{key}"] = value
    metrics["search.p99_recovery"] = (
        1.0 - metrics["search.hedged.p99_s"] / metrics["search.off.p99_s"]
    )
    metrics["search.hedge_overhead"] = (
        metrics["search.hedged.copies_per_request"] - 1.0
    )

    memory = memory_inputs(n_reads, seed)
    for policy in MEMORY_POLICIES:
        part = run_memory_chaos(policy, seed=seed, **memory)
        for key, value in part.items():
            if key != "policy":
                metrics[f"memory.{policy}.{key}"] = value
    metrics["memory.availability_gain"] = (
        metrics["memory.resilient.availability"]
        - metrics["memory.off.availability"]
    )
    metrics["memory.retry_overhead"] = (
        metrics["memory.resilient.attempts_per_read"] - 1.0
    )

    for key, value in run_scheduler_chaos(n_jobs=n_jobs, seed=seed).items():
        metrics[f"scheduler.{key}"] = value
    return metrics
