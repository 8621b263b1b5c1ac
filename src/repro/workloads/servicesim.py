"""X15: the experiment service modelled under planetary-scale traffic.

The tentpole service (:mod:`repro.service`) admits jobs through a
bounded queue, coalesces identical content-addressed submissions, and
serves repeats from the result cache. Those mechanisms are sized for
one machine; the paper's premise is *millions of users*. This module
closes the loop by modelling the same service shape in the DES engine
at a scale no real deployment of the reproduction could reach:
open-loop Poisson arrivals from a large client population, a
Zipf-popular catalogue of job keys (popular grids are submitted by many
users), a worker pool for grid execution, and a composable-rack fabric
whose spine uplinks flap underneath the workers -- a degraded fabric
stretches every in-flight execution, which is precisely when an
unbounded admission queue destroys tail latency.

Three admission policies are compared:

- ``"open"``    -- no admission control: every miss queues, nothing is
  shed; under spine faults the queue grows without bound and P99 is
  dominated by queueing delay.
- ``"bounded"`` -- the service's bounded queue: a miss arriving with
  ``queue_cap`` requests already waiting is shed with an explicit
  ``429``-equivalent; waiting work is bounded, so served requests keep
  a bounded tail.
- ``"fair"``    -- bounded plus the per-client in-flight cap, which
  stops a single heavy client from consuming the whole queue; shed
  concentrates on the heaviest clients.

Coalescing and the completed-result cache apply identically under all
three policies (they are what make the offered load survivable at all);
the policies differ only in what happens to cache-missing arrivals when
the pool is saturated. Headline metrics per policy: served P50/P99/P999
latency, shed rate, coalesce rate, cache-hit rate and the number of
executions actually run.

A request is a process only where it waits on something shared: an
execution queues on the worker :class:`~repro.engine.Resource`, so it
is a generator. Everything else is a calendar entry. A cache hit is a
:class:`~repro.engine.sim.Timeout` whose callback records the latency,
a coalesced request is a callback on the in-flight execution's
completion event, and the arrivals are bulk-injected with one
:meth:`~repro.engine.Simulator.schedule_batch`. Each fires at the
virtual time of the process step it replaces; only tie-break sequence
numbers are drawn at different moments, so the metrics equal the
all-process formulation's wherever no two calendar entries share a
timestamp (``tests/test_workloads_servicesim.py`` pins them).
"""

from __future__ import annotations

import math
import numbers
from functools import partial
from itertools import accumulate
from typing import Any, Dict, List, Optional

from repro.engine import FaultInjector, FaultSpec, RandomStream, Resource, Simulator
from repro.engine.faults import LINK_FLAP
from repro.errors import ModelError, TopologyError
from repro.mc.traffic import poisson_inter_arrivals
from repro.network.routing import ecmp_paths
from repro.network.topology import disaggregated_fabric
from repro.workloads.chaos import latency_summary

#: The admission policies X15 sweeps.
ADMISSION_POLICIES = ("open", "bounded", "fair")

#: Latency of serving a completed job straight from the result cache.
CACHE_SERVE_S = 2.0e-4


def _is_count(value: Any) -> bool:
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= 1)


def _is_spread(value: Any) -> bool:
    # A clear sign bit: >= 0 but not -0.0, which numpy's lognormal
    # rejects as a negative sigma.
    return (isinstance(value, numbers.Real) and math.isfinite(value)
            and math.copysign(1.0, value) > 0)


def _is_positive(value: Any) -> bool:
    return _is_spread(value) and value > 0


def _is_cap(value: Any) -> bool:
    # NaN fails the comparison; an infinite cap means "no cap".
    return isinstance(value, numbers.Real) and value >= 0


#: What each :func:`run_service_traffic` input must be: (rule, test).
_INPUT_RULES = {
    "n_requests": ("an integer >= 1", _is_count),
    "arrival_rate_hz": ("finite and > 0", _is_positive),
    "n_workers": ("an integer >= 1", _is_count),
    "queue_cap": (">= 0", _is_cap),
    "per_client_cap": (">= 0", _is_cap),
    "n_clients": ("an integer >= 1", _is_count),
    "client_skew": ("finite and >= 0", _is_spread),
    "n_job_kinds": ("an integer >= 1", _is_count),
    "popularity_skew": ("finite and >= 0", _is_spread),
    "service_median_s": ("finite and > 0", _is_positive),
    "service_sigma": ("finite and >= 0", _is_spread),
    "spine_mtbf_s": ("finite and > 0", _is_positive),
    "spine_mttr_s": ("finite and > 0", _is_positive),
}


def run_service_traffic(
    policy: str,
    n_requests: int = 50_000,
    arrival_rate_hz: float = 2_000.0,
    n_workers: int = 8,
    queue_cap: int = 48,
    per_client_cap: int = 4,
    n_clients: int = 100,
    client_skew: float = 1.5,
    n_job_kinds: int = 6_000,
    popularity_skew: float = 1.05,
    service_median_s: float = 0.008,
    service_sigma: float = 0.8,
    spine_mtbf_s: float = 2.0,
    spine_mttr_s: float = 1.2,
    seed: int = 0,
) -> Dict[str, Any]:
    """One admission policy under open-loop traffic with spine faults.

    Arrivals are Poisson at ``arrival_rate_hz``; each request is a
    ``(client, job_kind)`` draw -- clients Zipf-skewed (a few heavy
    users), job kinds Zipf-skewed (popular grids recur). A request whose
    kind has already completed is served from cache in
    :data:`CACHE_SERVE_S`; one whose kind is in flight coalesces onto
    the running execution; otherwise the policy decides: admit to the
    ``n_workers``-slot pool (queueing if busy) or shed. Execution time
    is lognormal, stretched by the surviving-ECMP-path fraction of the
    ``cpu-pool0 -> mem-pool0`` fabric route sampled at service start
    (spine uplinks flap with the given MTBF/MTTR), so fault windows and
    admission pressure interact the way they would in production.

    Returns the policy's metrics dict; deterministic in ``seed`` alone.
    An invalid input raises :class:`~repro.errors.ModelError` before the
    simulation is built.
    """
    params = locals()  # the arguments: no other local is bound yet
    for name, (rule, holds) in _INPUT_RULES.items():
        if not holds(params[name]):
            raise ModelError(f"{name} must be {rule}, got {params[name]!r}")
    if policy not in ADMISSION_POLICIES:
        raise ModelError(
            f"unknown admission policy {policy!r}; expected one of "
            f"{ADMISSION_POLICIES}"
        )
    n_spines = 4
    fabric = disaggregated_fabric(
        n_cpu_pools=2, n_mem_pools=2, n_storage_pools=1, n_spines=n_spines,
        pool_gbps=10.0,
    )
    sim = Simulator()
    injector = FaultInjector(sim, seed=seed + 1_515, fabric=fabric)
    horizon_s = n_requests / arrival_rate_hz
    injector.install(
        FaultSpec(
            kind=LINK_FLAP,
            targets=tuple(
                (f"spine{s}", "mem-pool0") for s in range(n_spines)
            ),
            mtbf_s=spine_mtbf_s,
            mttr_s=spine_mttr_s,
            end_s=horizon_s,
        )
    )

    # Arrival generation goes through the scenario library's constant-
    # rate fast path: one exponential batch from the same seeded stream,
    # stream-equivalent to the per-request scalar draws it replaced, so
    # registered metrics stay byte-identical at the default spec.
    inter_arrivals = poisson_inter_arrivals(
        arrival_rate_hz, n_requests, RandomStream(seed, "service.arrivals")
    )
    service = RandomStream(seed, "service.exec")
    clients = RandomStream(seed, "service.clients").zipf_indices(
        n_clients, client_skew, size=n_requests
    ).tolist()
    kinds = RandomStream(seed, "service.kinds").zipf_indices(
        n_job_kinds, popularity_skew, size=n_requests
    ).tolist()

    pool = Resource(sim, capacity=n_workers)
    completed: set = set()
    in_flight: Dict[int, Any] = {}  # job kind -> completion event
    client_load: Dict[int, int] = {}  # client -> queued+running requests

    served_latencies: List[float] = []
    counts = {
        "cache_hits": 0, "coalesced": 0, "executed": 0, "shed": 0,
        "shed_client_cap": 0,
    }
    waiting = [0]  # cache-missing requests admitted but not yet serving

    def degradation() -> float:
        """Service-time stretch from the fabric state at service start.

        The full spine set gives factor 1.0; each dead uplink removes an
        ECMP path and concentrates the pool's load on the survivors. An
        unreachable pool stalls execution hardest (double the worst
        reachable stretch) but never loses the job -- the service's
        executor retries transfers internally.
        """
        try:
            paths = ecmp_paths(fabric, "cpu-pool0", "mem-pool0")
        except TopologyError:
            return 2.0 * n_spines
        return n_spines / len(paths)

    def execute(kind: int, client: int, arrived_s: float):
        """One real grid execution; coalesced waiters ride its event."""
        waiting[0] += 1
        yield pool.acquire()
        waiting[0] -= 1
        try:
            duration = (
                service.lognormal(service_median_s, service_sigma)
                * degradation()
            )
            yield sim.timeout(duration)
        finally:
            pool.release()
        counts["executed"] += 1
        completed.add(kind)
        event = in_flight.pop(kind)
        event.succeed()
        client_load[client] -= 1
        served_latencies.append(sim.now - arrived_s)

    def served(evt) -> None:
        """A cache hit's serve timeout fired; its value is the arrival."""
        served_latencies.append(sim.now - evt.value)

    def joined(arrived_s: float, _done) -> None:
        """The execution a coalesced request joined has completed."""
        served_latencies.append(sim.now - arrived_s)

    def admit(index: int) -> None:
        kind = kinds[index]
        client = clients[index]
        if kind in completed:
            counts["cache_hits"] += 1
            sim.timeout(CACHE_SERVE_S, sim.now).add_callback(served)
            return
        if kind in in_flight:
            counts["coalesced"] += 1
            in_flight[kind].add_callback(partial(joined, sim.now))
            return
        if policy in ("bounded", "fair") and waiting[0] >= queue_cap:
            counts["shed"] += 1
            return
        if policy == "fair" and client_load.get(client, 0) >= per_client_cap:
            counts["shed"] += 1
            counts["shed_client_cap"] += 1
            return
        in_flight[kind] = sim.event()
        client_load[client] = client_load.get(client, 0) + 1
        sim.spawn(execute(kind, client, sim.now), name=f"svc.exec{index}")

    # Arrival i lands at the running sum of the first i gaps, the same
    # floats a chain of per-arrival timeouts would reach.
    sim.schedule_batch(
        list(accumulate(inter_arrivals[:-1], initial=0.0)), admit
    )
    sim.run()

    n_served = len(served_latencies)
    if n_served + counts["shed"] != n_requests:
        raise ModelError(
            f"request accounting broken: {n_served} served + "
            f"{counts['shed']} shed != {n_requests}"
        )
    summary = latency_summary(served_latencies)
    return {
        "policy": policy,
        "n_requests": n_requests,
        "served": n_served,
        "executed": counts["executed"],
        "shed_rate": counts["shed"] / n_requests,
        "shed_client_cap": counts["shed_client_cap"],
        "coalesce_rate": counts["coalesced"] / n_requests,
        "cache_hit_rate": counts["cache_hits"] / n_requests,
        "n_faults": len(injector.events),
        **summary,
    }


def service_exhibit(
    n_requests: int = 50_000,
    seed: int = 0,
    overrides: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """X15: sweep the three admission policies; returns merged metrics.

    Headline comparisons:

    - ``p99_improvement``: fraction of the open-admission P99 that the
      bounded queue removes for served requests (the paper's case for
      admission control over infinite buffering).
    - ``bounded.shed_rate`` / ``fair.shed_rate``: the price of that
      tail, paid in explicit sheds rather than silent queueing.
    - ``fair.shed_client_cap``: how much of fair's shedding the
      per-client cap absorbs (load concentrated on heavy clients).
    - ``execution_savings``: fraction of all requests that never ran a
      grid thanks to coalescing plus the completed-result cache --
      identical machinery to the live service's job table.
    """
    kwargs = dict(overrides or {})
    metrics: Dict[str, Any] = {}
    for policy in ADMISSION_POLICIES:
        part = run_service_traffic(
            policy, n_requests=n_requests, seed=seed, **kwargs
        )
        for key, value in part.items():
            if key != "policy":
                metrics[f"{policy}.{key}"] = value
    metrics["p99_improvement"] = (
        1.0 - metrics["bounded.p99_s"] / metrics["open.p99_s"]
    )
    metrics["fair_extra_shed"] = (
        metrics["fair.shed_rate"] - metrics["bounded.shed_rate"]
    )
    metrics["execution_savings"] = 1.0 - (
        metrics["open.executed"] / metrics["open.n_requests"]
    )
    return metrics
