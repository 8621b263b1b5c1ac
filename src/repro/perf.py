"""Pinned performance microbenches for the simulation substrates.

``python -m repro perf`` runs every microbench twice per round -- once on
the production kernel and once on the frozen pre-fast-path reference
kernel (:mod:`repro._perfref` for the engine/network suites,
:mod:`repro._modelref` for the model suite) -- in interleaved rounds,
then reports the median wall time of each side and the speedup ratio. CI
gates on the *ratios*, not on absolute times, so results are robust to
machine differences.

Benches
-------
``event_churn``
    Steady-state callback chains: a rolling window of pending timeouts,
    each completion scheduling the next. Measures raw event throughput
    (allocation, heap traffic, dispatch).
``timeout_churn``
    A single process yielding tens of thousands of timeouts back to
    back. Measures the process-step / timeout round trip.
``resource_contention``
    Many processes cycling acquire/hold/release on a small
    :class:`~repro.engine.resources.Resource`. Measures the
    event-flush and FIFO grant path.
``e2_end_to_end``
    The E2 Catapult search-ranking workload end to end on both kernels.
    Measures a realistic mix, and doubles as a golden-output check: the
    latency samples must match the reference kernel exactly.
``flow_solver_500``
    500-flow all-to-all shuffle between two racks (the E6-E8 traffic
    shape) through :class:`~repro.network.flows.FlowSimulator`.
``flow_solver_scaling``
    A smaller random-pair flow set across the whole fabric.
``switch_failure_impact``
    Per-switch bisection-impact analysis of a host-heavy leaf-spine:
    the production contract-once/reuse-the-baseline-flow analysis vs
    the frozen copy-and-recompute-per-switch reference.
``incremental_flow_repair``
    A localized fault schedule (ToR-uplink flaps, aggregation-switch
    crashes) over a ~1k-switch fat-tree:
    :class:`~repro.network.flows.IncrementalMaxMinSolver` repairing
    only the affected flows per event vs the frozen
    reroute-everything + full-re-solve driver. Allocation snapshots
    after every event must match bit for bit.
``sharded_fabric_4w``
    The X14 fabric-transport workload (k=30 fat-tree, 1125 switches,
    100k requests) on the sharded conservative-time engine -- 4 worker
    processes, pod-aligned cut -- vs the single-process kernel. The
    checksum is the canonical trace digest plus delivery counts, so
    every perf run re-proves bit-for-bit engine equivalence before
    timing is trusted. Pinned 3x target; the floor is enforced only on
    machines with >= 4 cores (see ``parallel_workers``), and a result
    recorded on fewer cores than workers reports the target as
    unverified.
``sharded_window_protocol``
    The same workload with 4 shards *inline* in one process: isolates
    the conservative-window protocol overhead (barriers, boundary-event
    routing, trace merge) from parallel hardware, so it reads below 1x.
``mc_commodity_year``
    Sampled commodity-year scenarios (the E1/E16 Monte-Carlo shape):
    one :func:`repro.mc.commodity_year_samples` batch vs the frozen
    per-sample scalar loop.
``roi_npv_sweep``
    NPV over a sampled accelerator-parameter grid:
    :func:`repro.mc.npv_batch` vs the per-sample cashflow/NPV loop.
``soc_sip_unit_costs``
    Monte-Carlo SoC/SiP unit costs under subsystem-area jitter on the
    EUROSERVER reference design.
``market_concentration``
    Lognormally jittered vendor shares plus the HHI of every sample.
``adoption_paths``
    A (q-sample x time) grid of Bass cumulative-adoption fractions.
``survey_theme_stats``
    Corpus fraction + per-role cross-tab for every survey theme in one
    batched pass over a replicated interview corpus.
``traffic_arrivals_1m``
    A ~1e6-arrival composed traffic scenario (diurnal curve + flash
    crowd + MMPP bursts) generated by the vectorized thinning draw in
    :func:`repro.mc.traffic.arrival_times` vs the frozen per-candidate
    scalar reference. The accepted arrival times must match bit for
    bit; pinned 50x target.
``traffic_sessions_clients``
    One million heavy-tailed (Pareto) session lengths plus Zipf-skewed
    client ids as two batch draws vs the frozen scalar loops.
``bulk_injection``
    Pre-sorted arrival times injected into the event calendar via
    :meth:`~repro.engine.sim.Simulator.schedule_batch` vs a per-event
    scheduling loop; both simulations then run to completion and must
    agree exactly on events fired and final clock.

Every bench verifies that both kernels produce the same simulation
results before any timing is reported (exactly for the engine benches,
to 1e-9 relative for the flow benches, whose vectorized solver may order
exact float ties differently). The model benches are bit-exact except
``soc_sip_unit_costs``, where numpy's SIMD ``pow`` differs from scalar
libm ``pow`` by 1 ULP in the yield term (see :mod:`repro.mc.soc_sip`).

Outputs ``BENCH_engine.json``, ``BENCH_network.json``,
``BENCH_models.json``, ``BENCH_sharded.json`` and ``BENCH_traffic.json``;
with ``--check <dir>`` the run fails if any bench regresses more than
25% against the committed baseline or drops below its pinned
``min_speedup`` floor. The headline benches carry a ``target_speedup``
(3x event churn, 5x 500-flow solver, 10x for the sampled-scenario model
benches, 3x the 4-worker sharded engine, 50x the 1e6-arrival scenario
draw) that the committed baseline demonstrates; the CI floor is the
target minus the regression tolerance, so a genuine regression trips
the gate but single-vCPU scheduler jitter does not. Parallel benches
record the core count they ran on and are ratio-gated only when the
machine can actually host their workers.

``--list`` prints every suite (with its committed-baseline path and
whether the baseline actually exists), every bench id and pinned floor
without running anything, and every timed run appends one JSON line --
UTC timestamp, git revision, all speedup ratios -- to
``benchmarks/BENCH_history.jsonl`` (override with ``--history-file``).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import _modelref, _perfref
from repro.errors import ModelError

#: CI fails when a bench's speedup falls more than this far (fractional)
#: below the committed baseline's speedup.
REGRESSION_TOLERANCE = 0.25

_BenchOutcome = Tuple[float, Any]  # (elapsed seconds, result checksum)


# ---------------------------------------------------------------------------
# Engine microbenches. Each takes the kernel classes to run on, so the
# same workload drives the production and the reference kernel.
# ---------------------------------------------------------------------------


def _bench_event_churn(sim_cls, n_events: int, window: int = 128) -> _BenchOutcome:
    sim = sim_cls()
    budget = n_events
    timeout = sim.timeout

    def make_chain(delay):
        def advance(evt):
            nonlocal budget
            budget -= 1
            if budget > 0:
                timeout(delay).add_callback(advance)

        return advance

    start = time.perf_counter()
    for i in range(window):
        timeout(1e-4 + i * 1e-6).add_callback(make_chain(1e-3 + i * 1e-6))
    sim.run()
    return time.perf_counter() - start, sim.now


def _bench_timeout_churn(sim_cls, n_timeouts: int) -> _BenchOutcome:
    sim = sim_cls()

    def ticker():
        for i in range(n_timeouts):
            yield sim.timeout(1e-3 + (i % 7) * 1e-6)

    sim.spawn(ticker())
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start, sim.now


def _bench_resource_contention(
    sim_cls, resource_cls, n_procs: int, cycles: int
) -> _BenchOutcome:
    sim = sim_cls()
    pool = resource_cls(sim, capacity=8)

    def worker(k):
        for _ in range(cycles):
            yield pool.acquire()
            yield sim.timeout(1e-4 + (k % 11) * 1e-6)
            pool.release()

    for k in range(n_procs):
        sim.spawn(worker(k))
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start, sim.now


def _bench_e2_end_to_end(sim_cls, resource_cls, n_requests: int) -> _BenchOutcome:
    import repro.workloads.search as search

    originals = (search.Simulator, search.Resource)
    search.Simulator, search.Resource = sim_cls, resource_cls
    try:
        start = time.perf_counter()
        result = search.run_search_service(
            qps=4000.0, n_requests=n_requests, accelerated=True
        )
        elapsed = time.perf_counter() - start
    finally:
        search.Simulator, search.Resource = originals
    return elapsed, tuple(result.latencies_s)


# ---------------------------------------------------------------------------
# Flow-solver microbenches.
# ---------------------------------------------------------------------------


def _shuffle_flows(n_flows: int, seed: int = 7):
    """All-to-all shuffle between two racks: the E6-E8 traffic shape."""
    from repro.network.flows import Flow

    rng = random.Random(seed)
    return [
        Flow(
            i,
            f"host0-{rng.randrange(8)}",
            f"host1-{rng.randrange(8)}",
            (1 + rng.random() * 99) * 1e6,
            start_s=rng.random() * 0.05,
        )
        for i in range(n_flows)
    ]


def _random_flows(n_flows: int, seed: int = 11):
    from repro.network.flows import Flow

    rng = random.Random(seed)
    flows = []
    for i in range(n_flows):
        src = f"host{rng.randrange(4)}-{rng.randrange(8)}"
        dst = f"host{rng.randrange(4)}-{rng.randrange(8)}"
        while dst == src:
            dst = f"host{rng.randrange(4)}-{rng.randrange(8)}"
        flows.append(
            Flow(i, src, dst, (1 + rng.random() * 99) * 1e6,
                 start_s=rng.random() * 0.5)
        )
    return flows


def _bench_flow_solver(solver_cls, make_flows) -> _BenchOutcome:
    from repro.network.topology import leaf_spine

    fabric = leaf_spine(n_spines=4, n_leaves=4, hosts_per_leaf=8)
    flows = make_flows()
    solver = solver_cls(fabric)
    start = time.perf_counter()
    solver.run(flows)
    elapsed = time.perf_counter() - start
    return elapsed, tuple(f.finish_s for f in flows)


def _bench_switch_impact(impl, hosts_per_leaf: int) -> _BenchOutcome:
    from repro.network.topology import leaf_spine

    fabric = leaf_spine(
        n_spines=4, n_leaves=8, hosts_per_leaf=hosts_per_leaf
    )
    start = time.perf_counter()
    worst = impl(fabric)
    elapsed = time.perf_counter() - start
    return elapsed, tuple(value for _, value in sorted(worst.items()))


def _fault_schedule_workload(
    k: int, n_flows: int, n_events: int, seed: int
) -> Tuple[Any, List[Any], List[Tuple[str, Tuple]]]:
    """A fat-tree, a flow set and a localized fault schedule.

    Fault targets are ToR uplinks and aggregation switches that the
    flows actually cross (discovered by routing once on the pristine
    fabric), so every event reroutes someone but none can disconnect a
    host: a ToR keeps k/2 uplinks and the schedule downs at most a few
    elements concurrently. Deterministic in ``seed``; called once per
    bench side so candidate and reference mutate separate fabrics.
    """
    from repro.network.flows import Flow
    from repro.network.routing import ecmp_path_for_flow, path_links
    from repro.network.topology import ROLE_AGG, ROLE_TOR, fat_tree

    fabric = fat_tree(k)
    rng = random.Random(seed)
    hosts = fabric.hosts
    flows = []
    for i in range(n_flows):
        src = rng.choice(hosts)
        dst = rng.choice(hosts)
        while dst == src:
            dst = rng.choice(hosts)
        flows.append(Flow(i, src, dst, (1 + rng.random() * 99) * 1e6))

    uplinks: List[Tuple[str, str]] = []
    aggs: List[str] = []
    seen_links: set = set()
    seen_aggs: set = set()
    for flow in flows:
        path = ecmp_path_for_flow(fabric, flow.src, flow.dst, flow.flow_id)
        for link in path_links(path):
            roles = {fabric.role(link[0]), fabric.role(link[1])}
            if roles == {ROLE_TOR, ROLE_AGG} and link not in seen_links:
                seen_links.add(link)
                uplinks.append(link)
        for node in path:
            if fabric.role(node) == ROLE_AGG and node not in seen_aggs:
                seen_aggs.add(node)
                aggs.append(node)

    schedule: List[Tuple[str, Tuple]] = []
    downed: List[Tuple[str, str]] = []
    for j in range(n_events):
        phase = j % 4
        if phase == 3 and downed:
            schedule.append(("restore_link", downed.pop(0)))
        elif phase == 2 and aggs:
            schedule.append(
                ("fail_node", (aggs.pop(rng.randrange(len(aggs))),))
            )
        else:
            remaining = [link for link in uplinks if link not in downed]
            link = remaining[rng.randrange(len(remaining))]
            downed.append(link)
            schedule.append(("fail_link", link))
    return fabric, flows, schedule


def _bench_incremental_repair(
    incremental: bool, k: int, n_flows: int, n_events: int, seed: int
) -> _BenchOutcome:
    fabric, flows, schedule = _fault_schedule_workload(
        k, n_flows, n_events, seed
    )
    if incremental:
        from repro.network.flows import IncrementalMaxMinSolver

        start = time.perf_counter()
        solver = IncrementalMaxMinSolver(fabric, flows)
        snapshots = [dict(solver.allocations)]
        for method, args in schedule:
            getattr(solver, method)(*args)
            snapshots.append(dict(solver.allocations))
        elapsed = time.perf_counter() - start
    else:
        start = time.perf_counter()
        snapshots = _perfref.reference_fault_schedule_rates(
            fabric, flows, schedule
        )
        elapsed = time.perf_counter() - start
    return elapsed, snapshots


# ---------------------------------------------------------------------------
# Model-layer microbenches: repro.mc batch kernels vs the frozen scalar
# references in repro._modelref. Workload setup (sampling inputs,
# building the corpus) happens before the timer so both sides time only
# the model evaluation.
# ---------------------------------------------------------------------------


def _bench_commodity_year(impl, n_samples: int, seed: int) -> _BenchOutcome:
    start = time.perf_counter()
    years = impl(4, 0.35, 1.5, n_samples, seed)
    return time.perf_counter() - start, years.tobytes()


def _bench_npv_sweep(sweep, n_samples: int, seed: int) -> _BenchOutcome:
    from repro.econ.sensitivity import default_accelerator_ranges
    from repro.mc import uniform_parameter_samples

    params = uniform_parameter_samples(
        default_accelerator_ranges(), n_samples, seed
    )
    start = time.perf_counter()
    npv = sweep(params, n_samples)
    return time.perf_counter() - start, npv.tobytes()


def _bench_sampled_unit_costs(impl, n_samples: int, seed: int) -> _BenchOutcome:
    from repro.econ.silicon import PROCESS_CATALOG
    from repro.econ.soc_sip import euroserver_reference_design

    design = euroserver_reference_design(
        PROCESS_CATALOG["16nm"], PROCESS_CATALOG["28nm"]
    )
    start = time.perf_counter()
    soc, sip = impl(design, 0.2, n_samples, seed)
    elapsed = time.perf_counter() - start
    return elapsed, tuple(map(float, soc)) + tuple(map(float, sip))


def _bench_market_concentration(
    sample_impl, hhi_impl, n_samples: int, seed: int
) -> _BenchOutcome:
    shares = [0.55, 0.12, 0.10, 0.08, 0.15]  # the datacenter-switch market
    start = time.perf_counter()
    sampled = sample_impl(shares, 0.3, n_samples, seed)
    hhi = hhi_impl(sampled)
    elapsed = time.perf_counter() - start
    return elapsed, sampled.tobytes() + hhi.tobytes()


def _bench_adoption_paths(impl, n_q: int, n_t: int, seed: int) -> _BenchOutcome:
    import numpy as np

    rng = np.random.default_rng(seed)
    q_values = rng.uniform(0.2, 0.8, size=n_q)
    t_grid = np.linspace(-2.0, 25.0, n_t)
    start = time.perf_counter()
    paths = impl(0.03, q_values, t_grid)
    return time.perf_counter() - start, paths.tobytes()


def _bench_theme_statistics(impl, replication: int) -> _BenchOutcome:
    from repro.survey import ALL_THEMES, generate_corpus

    corpus = generate_corpus()
    role_by_company = {c.company_id: c.role.value for c in corpus.companies}
    themes = [i.themes for i in corpus.interviews] * replication
    roles = [
        role_by_company[i.company_id] for i in corpus.interviews
    ] * replication
    start = time.perf_counter()
    stats = impl(themes, roles, list(ALL_THEMES))
    return time.perf_counter() - start, stats


# ---------------------------------------------------------------------------
# Sharded-engine benches. Candidate and reference are the *same*
# workload through two engines -- the sharded conservative-time
# coordinator vs the single-process kernel -- so the checksum (the
# canonical trace digest plus delivery counts) doubles as the
# bit-for-bit equivalence gate on every perf run.
# ---------------------------------------------------------------------------


def _bench_sharded_fabric(
    shards: int, inline: bool, workload
) -> _BenchOutcome:
    from repro.workloads.fabricsim import (
        simulate_fabric,
        simulate_fabric_sharded,
    )

    start = time.perf_counter()
    if shards <= 1:
        run = simulate_fabric(workload)
    else:
        run = simulate_fabric_sharded(workload, shards=shards, inline=inline)
    elapsed = time.perf_counter() - start
    checksum = (
        run.metrics["trace_sha256"],
        run.metrics["delivered"],
        run.metrics["dropped"],
        run.metrics["fault_events"],
    )
    return elapsed, checksum


# ---------------------------------------------------------------------------
# Traffic-scenario benches: the vectorized repro.mc.traffic batch draws
# vs the frozen scalar generators in repro._modelref, plus bulk DES
# injection through Simulator.schedule_batch vs a per-event scheduling
# loop. Checksums are the raw sample bytes (or the full simulation
# outcome), so every timed run re-proves bit-for-bit equivalence.
# ---------------------------------------------------------------------------


def _bench_arrival_generation(batch: bool, spec, seed: int) -> _BenchOutcome:
    from repro.mc.traffic import arrival_times

    if batch:
        start = time.perf_counter()
        times = arrival_times(spec, seed)
        elapsed = time.perf_counter() - start
    else:
        crowds = tuple(
            (c.start_s, c.ramp_s, c.peak_multiplier, c.decay_s, c.hold_s)
            for c in spec.flash_crowds
        )
        start = time.perf_counter()
        times = _modelref.reference_arrival_times(
            spec.base_rate_hz, spec.horizon_s, spec.diurnal_amplitude,
            spec.diurnal_period_s, crowds, spec.burst_multiplier,
            spec.burst_mean_s, spec.calm_mean_s, seed,
        )
        elapsed = time.perf_counter() - start
    return elapsed, times.tobytes()


def _bench_sessions_clients(batch: bool, spec, n: int, seed: int) -> _BenchOutcome:
    from repro.mc.traffic import client_ids, session_lengths

    if batch:
        start = time.perf_counter()
        lengths = session_lengths(spec, n, seed)
        clients = client_ids(spec, n, seed + 1)
        elapsed = time.perf_counter() - start
    else:
        start = time.perf_counter()
        lengths = _modelref.reference_session_lengths(
            spec.session_tail, spec.session_median_s, spec.session_sigma,
            spec.session_shape, spec.session_scale_s, n, seed,
        )
        clients = _modelref.reference_client_ids(
            spec.n_clients, spec.client_skew, n, seed + 1
        )
        elapsed = time.perf_counter() - start
    return elapsed, lengths.tobytes() + clients.tobytes()


def _bench_bulk_injection(batched: bool, whens: List[float]) -> _BenchOutcome:
    from functools import partial

    from repro.engine.sim import Simulator

    sim = Simulator()
    fired = [0]

    def absorb(_payload) -> None:
        fired[0] += 1

    # Only the injection phase is timed; the drain afterwards produces
    # the checksum proving both paths scheduled an identical calendar.
    start = time.perf_counter()
    if batched:
        sim.schedule_batch(whens, absorb)
    else:
        for index, when in enumerate(whens):
            sim._schedule_at(when, partial(absorb, index))
    elapsed = time.perf_counter() - start
    sim.run()
    return elapsed, (fired[0], sim.now, sim.events_processed)


# ---------------------------------------------------------------------------
# Harness.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchSpec:
    """One pinned microbench: candidate and reference runners."""

    name: str
    suite: str
    description: str
    candidate: Callable[[], _BenchOutcome]
    reference: Callable[[], _BenchOutcome]
    exact: bool = True  # checksum comparison: exact vs 1e-9 relative
    #: Speedup the committed baseline must demonstrate. The pinned CI
    #: floor is ``target_speedup * (1 - REGRESSION_TOLERANCE)`` so that
    #: single-vCPU timing jitter cannot flake the gate while a real
    #: regression still trips it.
    target_speedup: Optional[float] = None
    #: Worker processes the candidate needs to hit its target (0 for a
    #: single-process bench). A parallel bench records the core count it
    #: ran on, and the baseline check only enforces ratio floors when
    #: the machine actually has that many cores -- a 4-worker 3x target
    #: is meaningless on a 1-core box.
    parallel_workers: int = 0


def _verify_checksums(spec: BenchSpec, candidate: Any, reference: Any) -> None:
    if spec.exact:
        if candidate != reference:
            raise ModelError(
                f"perf bench {spec.name!r}: candidate kernel diverged from "
                f"the reference kernel ({candidate!r} != {reference!r})"
            )
        return
    cand = candidate if isinstance(candidate, tuple) else (candidate,)
    ref = reference if isinstance(reference, tuple) else (reference,)
    if len(cand) != len(ref):
        raise ModelError(
            f"perf bench {spec.name!r}: result cardinality diverged"
        )
    for i, (a, b) in enumerate(zip(cand, ref)):
        scale = max(abs(a), abs(b), 1e-12)
        if abs(a - b) / scale > 1e-9:
            raise ModelError(
                f"perf bench {spec.name!r}: result {i} diverged beyond "
                f"1e-9 relative ({a!r} vs {b!r})"
            )


def _run_spec(spec: BenchSpec, rounds: int) -> Dict[str, Any]:
    # Warmup round, also used to verify both kernels agree on the
    # simulation results before any timing is trusted.
    _, cand_sum = spec.candidate()
    _, ref_sum = spec.reference()
    _verify_checksums(spec, cand_sum, ref_sum)

    candidate_times: List[float] = []
    reference_times: List[float] = []
    for _ in range(rounds):
        # Interleaved so slow machine-wide drift (thermal, noisy
        # neighbours) hits both sides equally.
        candidate_times.append(spec.candidate()[0])
        reference_times.append(spec.reference()[0])

    reference_median = statistics.median(reference_times)
    candidate_median = statistics.median(candidate_times)
    entry: Dict[str, Any] = {
        "description": spec.description,
        "rounds": rounds,
        "reference_median_s": round(reference_median, 6),
        "candidate_median_s": round(candidate_median, 6),
        "speedup": round(reference_median / candidate_median, 3),
    }
    if spec.target_speedup is not None:
        entry["target_speedup"] = spec.target_speedup
        entry["min_speedup"] = round(
            spec.target_speedup * (1.0 - REGRESSION_TOLERANCE), 3
        )
    if spec.parallel_workers:
        entry["parallel_workers"] = spec.parallel_workers
        entry["cores"] = _available_cores()
    return entry


def _available_cores() -> int:
    """CPU cores available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_specs(quick: bool = False, seed: int = 0) -> List[BenchSpec]:
    """The pinned bench set; ``quick`` shrinks workloads ~10x for tests.

    ``seed`` follows the runner convention: added to each flow bench's
    legacy base seed (7 / 11) and to each model bench's base seed, with
    0 reproducing historical runs.
    """
    from repro.engine.resources import Resource
    from repro.engine.sim import Simulator
    from repro.mc import (
        bass_adoption_paths,
        commodity_year_samples,
        hhi_batch,
        npv_batch,
        sampled_market_shares,
        sampled_unit_costs,
        theme_statistics,
    )
    from repro.mc.traffic import FlashCrowd, ScenarioSpec
    from repro.network.failures import single_switch_failure_impact
    from repro.network.flows import FlowSimulator
    from repro.workloads.fabricsim import FabricWorkload

    scale = 0.1 if quick else 1.0
    n_churn = max(int(50_000 * scale), 500)
    n_timeouts = max(int(30_000 * scale), 300)
    n_procs = max(int(200 * scale), 20)
    cycles = 25
    n_requests = max(int(2_000 * scale), 100)
    n_shuffle = max(int(500 * scale), 50)
    n_random = max(int(150 * scale), 30)
    hosts_per_leaf = 4 if quick else 16
    n_mc_years = max(int(200_000 * scale), 2_000)
    n_mc_roi = max(int(40_000 * scale), 400)
    n_mc_costs = max(int(6_000 * scale), 60)
    n_mc_shares = max(int(60_000 * scale), 600)
    n_mc_q = max(int(500 * scale), 50)
    n_mc_t = max(int(300 * scale), 30)
    corpus_reps = max(int(100 * scale), 2)
    repair_k = 8 if quick else 30  # 1125 switches at k=30
    repair_flows = 10 if quick else 24
    repair_events = 6 if quick else 10
    sharded_workload = FabricWorkload(
        fabric="fat-tree",
        k=8 if quick else 30,  # 1125 switches, 6750 hosts at k=30
        n_requests=4_000 if quick else 100_000,
        duration_s=2e-3,
        seed=23 + seed,
    )
    sharded_shards = 2 if quick else 4
    sharded_workers = 2 if quick else 4
    # ~1e6 accepted arrivals at full size: 32 kHz base over a 25 s
    # horizon with every scenario component composed. Quick shrinks
    # both the rate and the horizon (~100x fewer candidates).
    traffic_horizon = 25.0 * scale if quick else 25.0
    traffic_spec = ScenarioSpec(
        base_rate_hz=32_000.0 * scale if quick else 32_000.0,
        horizon_s=traffic_horizon,
        diurnal_amplitude=0.35,
        diurnal_period_s=traffic_horizon,
        flash_crowds=(
            FlashCrowd(
                start_s=0.3 * traffic_horizon,
                ramp_s=0.05 * traffic_horizon,
                peak_multiplier=2.0,
                decay_s=0.1 * traffic_horizon,
                hold_s=0.05 * traffic_horizon,
            ),
        ),
        burst_multiplier=1.5,
        burst_mean_s=0.04 * traffic_horizon,
        calm_mean_s=0.16 * traffic_horizon,
        session_tail="pareto",
        session_shape=1.6,
        session_scale_s=0.5,
        n_clients=1_000_000,
        client_skew=1.1,
    )
    n_sessions = 10_000 if quick else 1_000_000
    inject_n = 5_000 if quick else 200_000
    import numpy as _np

    inject_whens = _np.cumsum(
        _np.random.default_rng(97 + seed).exponential(1.0e-3, size=inject_n)
    ).tolist()

    return [
        BenchSpec(
            name="event_churn",
            suite="engine",
            description=(
                f"{n_churn} chained timeout completions over a rolling "
                "window of pending events"
            ),
            candidate=lambda: _bench_event_churn(Simulator, n_churn),
            reference=lambda: _bench_event_churn(_perfref.Simulator, n_churn),
            target_speedup=None if quick else 3.0,
        ),
        BenchSpec(
            name="timeout_churn",
            suite="engine",
            description=(
                f"one process yielding {n_timeouts} timeouts back to back"
            ),
            candidate=lambda: _bench_timeout_churn(Simulator, n_timeouts),
            reference=lambda: _bench_timeout_churn(
                _perfref.Simulator, n_timeouts
            ),
        ),
        BenchSpec(
            name="resource_contention",
            suite="engine",
            description=(
                f"{n_procs} processes x {cycles} acquire/hold/release "
                "cycles on an 8-way resource"
            ),
            candidate=lambda: _bench_resource_contention(
                Simulator, Resource, n_procs, cycles
            ),
            reference=lambda: _bench_resource_contention(
                _perfref.Simulator, _perfref.Resource, n_procs, cycles
            ),
        ),
        BenchSpec(
            name="e2_end_to_end",
            suite="engine",
            description=(
                f"E2 search-ranking service, {n_requests} accelerated "
                "requests at 4000 qps"
            ),
            candidate=lambda: _bench_e2_end_to_end(
                Simulator, Resource, n_requests
            ),
            reference=lambda: _bench_e2_end_to_end(
                _perfref.Simulator, _perfref.Resource, n_requests
            ),
        ),
        BenchSpec(
            name="flow_solver_500",
            suite="network",
            description=(
                f"{n_shuffle}-flow two-rack shuffle through FlowSimulator"
            ),
            candidate=lambda: _bench_flow_solver(
                FlowSimulator, lambda: _shuffle_flows(n_shuffle, seed=7 + seed)
            ),
            reference=lambda: _bench_flow_solver(
                _perfref.ReferenceFlowSimulator,
                lambda: _shuffle_flows(n_shuffle, seed=7 + seed),
            ),
            exact=False,
            target_speedup=None if quick else 5.0,
        ),
        BenchSpec(
            name="switch_failure_impact",
            suite="network",
            description=(
                f"per-switch bisection impact on a 4x8 leaf-spine with "
                f"{hosts_per_leaf} hosts per leaf"
            ),
            candidate=lambda: _bench_switch_impact(
                single_switch_failure_impact, hosts_per_leaf
            ),
            reference=lambda: _bench_switch_impact(
                _perfref.reference_single_switch_failure_impact,
                hosts_per_leaf,
            ),
            exact=False,
        ),
        BenchSpec(
            name="flow_solver_scaling",
            suite="network",
            description=(
                f"{n_random} random-pair flows across a 4x4 leaf-spine"
            ),
            candidate=lambda: _bench_flow_solver(
                FlowSimulator, lambda: _random_flows(n_random, seed=11 + seed)
            ),
            reference=lambda: _bench_flow_solver(
                _perfref.ReferenceFlowSimulator,
                lambda: _random_flows(n_random, seed=11 + seed),
            ),
            exact=False,
        ),
        BenchSpec(
            name="incremental_flow_repair",
            suite="network",
            description=(
                f"{repair_events}-event localized fault schedule over a "
                f"k={repair_k} fat-tree with {repair_flows} flows: "
                "incremental repair vs full reroute + re-solve per event"
            ),
            candidate=lambda: _bench_incremental_repair(
                True, repair_k, repair_flows, repair_events, 17 + seed
            ),
            reference=lambda: _bench_incremental_repair(
                False, repair_k, repair_flows, repair_events, 17 + seed
            ),
            exact=True,  # allocations must match bit for bit
            target_speedup=None if quick else 10.0,
        ),
        BenchSpec(
            name="sharded_fabric_4w",
            suite="sharded",
            description=(
                f"k={sharded_workload.k} fat-tree transport "
                f"({sharded_workload.n_requests} requests): "
                f"{sharded_shards} worker processes under conservative "
                "windows vs the single-process kernel"
            ),
            candidate=lambda: _bench_sharded_fabric(
                sharded_shards, False, sharded_workload
            ),
            reference=lambda: _bench_sharded_fabric(
                1, False, sharded_workload
            ),
            exact=True,  # merged trace digest must match bit for bit
            target_speedup=None if quick else 3.0,
            parallel_workers=sharded_workers,
        ),
        BenchSpec(
            name="sharded_window_protocol",
            suite="sharded",
            description=(
                f"same workload, {sharded_shards} shards inline in one "
                "process: conservative-window protocol overhead without "
                "parallel hardware"
            ),
            candidate=lambda: _bench_sharded_fabric(
                sharded_shards, True, sharded_workload
            ),
            reference=lambda: _bench_sharded_fabric(
                1, False, sharded_workload
            ),
            exact=True,
        ),
        BenchSpec(
            name="mc_commodity_year",
            suite="models",
            description=(
                f"{n_mc_years} sampled commodity-year scenarios "
                "(TRL 4, risk 0.35, 1.5x acceleration)"
            ),
            candidate=lambda: _bench_commodity_year(
                commodity_year_samples, n_mc_years, 29 + seed
            ),
            reference=lambda: _bench_commodity_year(
                _modelref.reference_commodity_year_samples,
                n_mc_years,
                29 + seed,
            ),
            target_speedup=None if quick else 10.0,
        ),
        BenchSpec(
            name="roi_npv_sweep",
            suite="models",
            description=(
                f"NPV over {n_mc_roi} sampled accelerator parameter "
                "vectors (the Finding-2 uncertainty set)"
            ),
            candidate=lambda: _bench_npv_sweep(
                lambda params, _n: npv_batch(params), n_mc_roi, seed
            ),
            reference=lambda: _bench_npv_sweep(
                lambda params, n: _modelref.reference_npv_sweep(
                    params, n, 3
                ),
                n_mc_roi,
                seed,
            ),
            target_speedup=None if quick else 10.0,
        ),
        BenchSpec(
            name="soc_sip_unit_costs",
            suite="models",
            description=(
                f"{n_mc_costs} Monte-Carlo SoC/SiP unit costs on the "
                "EUROSERVER design (sigma 0.2 area jitter)"
            ),
            candidate=lambda: _bench_sampled_unit_costs(
                sampled_unit_costs, n_mc_costs, seed
            ),
            reference=lambda: _bench_sampled_unit_costs(
                _modelref.reference_sampled_unit_costs, n_mc_costs, seed
            ),
            exact=False,  # 1-ULP SIMD-vs-libm pow; see repro.mc.soc_sip
        ),
        BenchSpec(
            name="market_concentration",
            suite="models",
            description=(
                f"{n_mc_shares} jittered share vectors + HHI for the "
                "datacenter-switch market"
            ),
            candidate=lambda: _bench_market_concentration(
                sampled_market_shares, hhi_batch, n_mc_shares, seed
            ),
            reference=lambda: _bench_market_concentration(
                _modelref.reference_sampled_market_shares,
                _modelref.reference_hhi,
                n_mc_shares,
                seed,
            ),
        ),
        BenchSpec(
            name="adoption_paths",
            suite="models",
            description=(
                f"{n_mc_q} x {n_mc_t} Bass cumulative-adoption grid "
                "(sampled q, p=0.03)"
            ),
            candidate=lambda: _bench_adoption_paths(
                bass_adoption_paths, n_mc_q, n_mc_t, 13 + seed
            ),
            reference=lambda: _bench_adoption_paths(
                _modelref.reference_adoption_paths, n_mc_q, n_mc_t, 13 + seed
            ),
        ),
        BenchSpec(
            name="survey_theme_stats",
            suite="models",
            description=(
                f"all-theme fraction + role cross-tab over a "
                f"{corpus_reps}x-replicated interview corpus"
            ),
            candidate=lambda: _bench_theme_statistics(
                theme_statistics, corpus_reps
            ),
            reference=lambda: _bench_theme_statistics(
                _modelref.reference_theme_statistics, corpus_reps
            ),
            target_speedup=None if quick else 5.0,
        ),
        BenchSpec(
            name="traffic_arrivals_1m",
            suite="traffic",
            description=(
                f"{traffic_spec.base_rate_hz:.0f} Hz x "
                f"{traffic_spec.horizon_s:.1f} s composed scenario "
                "(diurnal + flash crowd + MMPP bursts): one thinning "
                "batch draw vs the frozen per-candidate scalar loop"
            ),
            candidate=lambda: _bench_arrival_generation(
                True, traffic_spec, 41 + seed
            ),
            reference=lambda: _bench_arrival_generation(
                False, traffic_spec, 41 + seed
            ),
            exact=True,  # accepted arrival times must match bit for bit
            target_speedup=None if quick else 50.0,
        ),
        BenchSpec(
            name="traffic_sessions_clients",
            suite="traffic",
            description=(
                f"{n_sessions} Pareto session lengths + Zipf client ids "
                "as two batch draws vs the frozen scalar loops"
            ),
            candidate=lambda: _bench_sessions_clients(
                True, traffic_spec, n_sessions, 43 + seed
            ),
            reference=lambda: _bench_sessions_clients(
                False, traffic_spec, n_sessions, 43 + seed
            ),
            exact=True,
            target_speedup=None if quick else 10.0,
        ),
        BenchSpec(
            name="bulk_injection",
            suite="traffic",
            description=(
                f"{inject_n} pre-sorted arrivals into the two-tier "
                "calendar: Simulator.schedule_batch vs a per-event "
                "scheduling loop (drain untimed, checksummed)"
            ),
            candidate=lambda: _bench_bulk_injection(True, inject_whens),
            reference=lambda: _bench_bulk_injection(False, inject_whens),
            exact=True,
            target_speedup=None if quick else 2.0,
        ),
    ]


def run_suites(
    rounds: int = 3,
    quick: bool = False,
    seed: int = 0,
    suites: Optional[List[str]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Run the benches; returns ``{suite_name: suite_results}``.

    ``suites`` restricts the run to the named suite ids; ``None`` runs
    everything. Unknown suite ids raise :class:`ModelError` (so the CLI
    fails loudly instead of silently running nothing).
    """
    if rounds < 1:
        raise ModelError(f"rounds must be >= 1, got {rounds}")
    specs = build_specs(quick=quick, seed=seed)
    known = sorted({spec.suite for spec in specs})
    if suites is not None:
        unknown = sorted(set(suites) - set(known))
        if unknown:
            raise ModelError(
                f"unknown perf suite(s): {', '.join(unknown)}; "
                f"valid suites: {', '.join(known)}"
            )
        wanted = set(suites)
        specs = [spec for spec in specs if spec.suite in wanted]
    results: Dict[str, Dict[str, Any]] = {}
    for spec in specs:
        suite = results.setdefault(
            spec.suite,
            {"suite": spec.suite, "rounds": rounds, "quick": quick,
             "benches": {}},
        )
        suite["benches"][spec.name] = _run_spec(spec, rounds)
    return results


def write_results(
    suites: Dict[str, Dict[str, Any]], out_dir: Path
) -> List[Path]:
    """Write ``BENCH_<suite>.json`` files atomically; returns the paths.

    Routed through :func:`repro.core.atomicio.atomic_write_json` so an
    interrupted perf run cannot leave a truncated bench artifact for
    the baseline gate to trip over.
    """
    from repro.core.atomicio import atomic_write_json

    out_dir = Path(out_dir)
    paths = []
    for name, results in sorted(suites.items()):
        paths.append(atomic_write_json(out_dir / f"BENCH_{name}.json", results))
    return paths


def check_against_baseline(
    suites: Dict[str, Dict[str, Any]], baseline_dir: Path
) -> List[str]:
    """Regression check vs committed baselines; returns failure strings.

    A bench fails when its speedup drops more than
    ``REGRESSION_TOLERANCE`` below the baseline speedup, or below the
    baseline's pinned ``min_speedup`` floor.

    Parallel benches (``parallel_workers`` set) compare like with like:
    a run or baseline only counts as *parallel* when its recorded core
    count covers the workers it needs. When parallelism differs between
    baseline and current run (e.g. a 1-core dev box vs a 4-vCPU CI
    runner), the relative ratio is meaningless, so a parallel current
    run is held to the pinned ``min_speedup`` floor alone, and a serial
    current run is not ratio-gated at all (the checksum equivalence
    inside the bench still ran).
    """
    baseline_dir = Path(baseline_dir)
    failures: List[str] = []
    for name, results in sorted(suites.items()):
        path = baseline_dir / f"BENCH_{name}.json"
        if not path.exists():
            failures.append(f"{name}: no baseline at {path}")
            continue
        baseline = json.loads(path.read_text())
        for bench, entry in sorted(baseline.get("benches", {}).items()):
            current = results.get("benches", {}).get(bench)
            if current is None:
                failures.append(f"{bench}: missing from current run")
                continue
            min_speedup = entry.get("min_speedup")
            workers = entry.get("parallel_workers", 0)
            baseline_parallel = bool(
                workers and entry.get("cores", 0) >= workers
            )
            current_parallel = bool(
                workers and current.get("cores", 0) >= workers
            )
            if workers and baseline_parallel != current_parallel:
                if not current_parallel:
                    continue  # serial machine: ratio floor unenforceable
                floor = min_speedup
                if floor is None:
                    continue
            else:
                floor = entry["speedup"] * (1.0 - REGRESSION_TOLERANCE)
                if min_speedup is not None and (
                    not workers or current_parallel
                ):
                    floor = max(floor, min_speedup)
            if current["speedup"] < floor:
                failures.append(
                    f"{bench}: speedup {current['speedup']:.2f}x below "
                    f"floor {floor:.2f}x (baseline "
                    f"{entry['speedup']:.2f}x, tolerance "
                    f"{REGRESSION_TOLERANCE:.0%})"
                )
    return failures


def render_spec_listing(specs: Optional[List[BenchSpec]] = None) -> str:
    """The ``--list`` view: suites, bench ids, pinned targets/floors.

    Each suite line names its committed-baseline file
    (``benchmarks/baselines/BENCH_<suite>.json``) and whether that file
    actually exists, so a missing baseline is visible before a
    ``--check`` run fails on it. Also printed alongside the
    unknown-suite error so a typo shows the valid ids and what each
    would have gated.
    """
    if specs is None:
        specs = build_specs()
    by_suite: Dict[str, List[BenchSpec]] = {}
    for spec in specs:
        by_suite.setdefault(spec.suite, []).append(spec)
    baseline_dir = default_history_path().parent / "baselines"
    lines = ["perf suites and pinned benches:"]
    for suite in sorted(by_suite):
        baseline = baseline_dir / f"BENCH_{suite}.json"
        status = "committed" if baseline.exists() else "MISSING"
        try:
            shown = baseline.relative_to(Path.cwd())
        except ValueError:
            shown = baseline
        lines.append(f"  {suite}  [baseline {shown}: {status}]")
        width = max(len(spec.name) for spec in by_suite[suite]) + 2
        for spec in by_suite[suite]:
            gates = []
            if spec.target_speedup is not None:
                floor = spec.target_speedup * (1.0 - REGRESSION_TOLERANCE)
                gates.append(
                    f"target {spec.target_speedup:.1f}x, "
                    f"floor {floor:.2f}x"
                )
            if spec.parallel_workers:
                gates.append(f"{spec.parallel_workers} workers")
            if not spec.exact:
                gates.append("checksum 1e-9 rel")
            suffix = f"[{'; '.join(gates)}]" if gates else ""
            lines.append(f"    {spec.name:<{width}}{suffix}".rstrip())
    return "\n".join(lines)


def _git_rev() -> str:
    """Short git revision of the working tree, or ``unknown``."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10.0,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def default_history_path() -> Path:
    """``benchmarks/BENCH_history.jsonl`` next to the source checkout.

    Falls back to ``benchmarks/`` under the current directory when the
    package does not live in a source tree (installed wheel).
    """
    repo_root = Path(__file__).resolve().parents[2]
    benchmarks = repo_root / "benchmarks"
    if not benchmarks.is_dir():
        benchmarks = Path("benchmarks")
    return benchmarks / "BENCH_history.jsonl"


def append_history(
    suites: Dict[str, Dict[str, Any]], history_path: Path
) -> Path:
    """Append one timestamped speedup record per run (one JSON line).

    The history file is an append-only flight recorder: every
    ``python -m repro perf`` invocation logs when it ran, on what
    revision, and every bench's speedup ratio, so drift between the
    committed baselines is reconstructable after the fact.
    """
    from datetime import datetime, timezone

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_rev": _git_rev(),
        "quick": any(r.get("quick") for r in suites.values()),
        "rounds": {name: r["rounds"] for name, r in sorted(suites.items())},
        "speedups": {
            name: {
                bench: entry["speedup"]
                for bench, entry in sorted(results["benches"].items())
            }
            for name, results in sorted(suites.items())
        },
    }
    history_path = Path(history_path)
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with history_path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return history_path


def render_results(suites: Dict[str, Dict[str, Any]]) -> str:
    """Human-readable summary table of all suites."""
    lines = []
    for name, results in sorted(suites.items()):
        lines.append(f"suite {name} (median of {results['rounds']} rounds"
                     f"{', quick' if results.get('quick') else ''})")
        width = max(len(b) for b in results["benches"]) + 2
        for bench, entry in results["benches"].items():
            floor = (f"  (target {entry['target_speedup']:.1f}x, "
                     f"floor {entry['min_speedup']:.2f}x)"
                     if "min_speedup" in entry else "")
            workers = entry.get("parallel_workers", 0)
            if workers and entry.get("cores", 0) < workers:
                floor += (f"  [target unverified: {entry.get('cores', 0)}"
                          f" cores < {workers} workers]")
            lines.append(
                f"  {bench:<{width}} reference {entry['reference_median_s']:>9.4f}s"
                f"  candidate {entry['candidate_median_s']:>9.4f}s"
                f"  speedup {entry['speedup']:>6.2f}x{floor}"
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI for ``python -m repro perf`` and ``benchmarks/perfsuite.py``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro perf",
        description="pinned engine/flow-solver perf microbenches",
    )
    parser.add_argument("suites", nargs="*", metavar="SUITE",
                        help="suite ids to run (engine, models, network, "
                             "sharded, traffic); default: all suites")
    parser.add_argument("--list", action="store_true", dest="list_specs",
                        help="list suites (with committed-baseline paths), "
                             "bench ids and pinned targets/floors, then "
                             "exit")
    parser.add_argument("--out-dir", default=".",
                        help="where to write BENCH_*.json (default: .)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per bench (default: 3)")
    parser.add_argument("--quick", action="store_true",
                        help="~10x smaller workloads (smoke/tests)")
    parser.add_argument("--check", metavar="BASELINE_DIR", default=None,
                        help="fail on >25%% regression vs baselines in DIR")
    parser.add_argument("--seed", type=int, default=0,
                        help="flow-workload seed offset (CLI convention "
                             "shared with `repro run`; default: 0)")
    parser.add_argument("--history-file", default=None, metavar="PATH",
                        help="append-only speedup log (default: "
                             "benchmarks/BENCH_history.jsonl; 'none' "
                             "disables)")
    args = parser.parse_args(argv)

    if args.list_specs:
        print(render_spec_listing())
        return 0

    try:
        suites = run_suites(
            rounds=args.rounds, quick=args.quick, seed=args.seed,
            suites=args.suites or None,
        )
    except ModelError as error:
        # Same helpful-failure pattern as `repro trace`: a misspelled
        # suite id must not exit 0 having silently run nothing -- and
        # the listing shows what the valid ids would have gated.
        print(f"error: {error}", file=sys.stderr)
        print(render_spec_listing(), file=sys.stderr)
        return 2
    print(render_results(suites))
    for path in write_results(suites, Path(args.out_dir)):
        print(f"wrote {path}")
    if args.history_file != "none":
        history = (
            Path(args.history_file) if args.history_file
            else default_history_path()
        )
        try:
            print(f"history appended to {append_history(suites, history)}")
        except OSError as error:  # pragma: no cover - read-only checkout
            print(f"warning: could not append history: {error}",
                  file=sys.stderr)
    if args.check is not None:
        failures = check_against_baseline(suites, Path(args.check))
        if failures:
            print("PERF REGRESSION:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"regression check vs {args.check}: OK")
    from repro.service.schema import SCHEMA_VERSION

    print(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "command": "perf",
        "suites": sorted(suites),
        "benches": sum(len(r["benches"]) for r in suites.values()),
        "quick": bool(args.quick),
        "rounds": args.rounds,
    }, sort_keys=True), flush=True)
    return 0
