"""Pinned performance microbenches for the simulation substrates.

``python -m repro perf`` runs every microbench twice per round -- once on
the production implementation (the *candidate*) and once on the frozen
pre-fast-path *reference* (:mod:`repro._perfref` for the engine and
network suites, :mod:`repro._modelref` for the model and traffic suites;
the sharded suite races the sharded engine against the single-process
kernel) -- in interleaved rounds, then reports the median wall time of
each side and the speedup ratio. CI gates on the *ratios*, not on
absolute times, so results are robust to machine differences.

The benches are one table, :func:`build_specs`. A row holds its full and
``--quick`` problem sizes, an untimed ``setup`` that builds fresh inputs
for one side, the timed ``body`` run with the candidate or the reference
implementation, and an untimed ``checksum``; :func:`_measure` is the one
timer around every body. The reason a row's checksum is relative, or a
floor binds only on enough cores, is noted next to that row, and
``python -m repro perf --list`` prints the catalogue with every pinned
floor.

Every bench verifies that both sides produce the same checksum before
any timing is reported: exactly, or to 1e-9 relative where the row says
so.

Outputs ``BENCH_engine.json``, ``BENCH_network.json``,
``BENCH_models.json``, ``BENCH_sharded.json`` and ``BENCH_traffic.json``;
with ``--check <dir>`` the run fails if any bench regresses more than
25% against the committed baseline or drops below its pinned
``min_speedup`` floor. The headline benches carry a ``target_speedup``
that the committed baseline demonstrates; the CI floor is the target
minus the regression tolerance, so a genuine regression trips the gate
but single-vCPU scheduler jitter does not. Parallel benches record the
core count they ran on and are ratio-gated only when the machine can
actually host their workers.

Every timed run appends one JSON line -- UTC timestamp, git revision,
all speedup ratios -- to ``benchmarks/BENCH_history.jsonl`` (override
with ``--history-file``).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

import repro.workloads.search as search
from repro import _modelref, _perfref
from repro.econ.sensitivity import default_accelerator_ranges
from repro.econ.silicon import PROCESS_CATALOG
from repro.econ.soc_sip import euroserver_reference_design
from repro.engine.resources import Resource
from repro.engine.sim import Simulator
from repro.errors import ModelError
from repro.mc import (
    bass_adoption_paths,
    commodity_year_samples,
    hhi_batch,
    npv_batch,
    sampled_market_shares,
    sampled_unit_costs,
    theme_statistics,
    uniform_parameter_samples,
)
from repro.mc.traffic import (
    FlashCrowd,
    ScenarioSpec,
    arrival_times,
    client_ids,
    session_lengths,
)
from repro.network.failures import single_switch_failure_impact
from repro.network.flows import Flow, FlowSimulator, IncrementalMaxMinSolver
from repro.network.routing import ecmp_path_for_flow, path_links
from repro.network.topology import ROLE_AGG, ROLE_TOR, fat_tree, leaf_spine
from repro.survey import ALL_THEMES, generate_corpus
from repro.workloads.fabricsim import (
    FabricWorkload,
    simulate_fabric,
    simulate_fabric_sharded,
)

#: CI fails when a bench's speedup falls more than this far (fractional)
#: below the committed baseline's speedup.
REGRESSION_TOLERANCE = 0.25


# ---------------------------------------------------------------------------
# The harness: one spec type and one timer.
# ---------------------------------------------------------------------------


def _call(impl, args):
    return impl(*args)


def _output(_inputs, output):
    return output


@dataclass(frozen=True)
class BenchSpec:
    """One pinned microbench: a row of the :func:`build_specs` table.

    ``setup(impl, **size)`` builds fresh inputs for one side, untimed.
    ``body(impl, inputs)`` is the timed work (default ``impl(*inputs)``).
    ``checksum(inputs, output)`` reduces the result, untimed, to the
    value both sides must agree on (default: the output itself).
    ``teardown(inputs)`` undoes what ``setup`` changed, untimed, even when
    the body fails. ``impl`` is ``candidate`` or ``reference``.
    :func:`build_specs` fills ``{key}`` fields of ``description`` from
    ``size``.
    """

    name: str
    suite: str
    description: str
    candidate: Any
    reference: Any
    setup: Callable[..., Any]
    body: Callable[[Any, Any], Any] = _call
    checksum: Callable[[Any, Any], Any] = _output
    teardown: Optional[Callable[[Any], Any]] = None
    size: Mapping[str, Any] = field(default_factory=dict)
    exact: bool = True  # checksum comparison: exact vs 1e-9 relative
    #: Speedup the committed baseline must demonstrate.
    target_speedup: Optional[float] = None
    #: Worker processes the candidate needs to hit its target (0 for a
    #: single-process bench). A parallel bench records the core count it
    #: ran on, and the baseline check only enforces ratio floors when
    #: the machine actually has that many cores -- a 4-worker 3x target
    #: is meaningless on a 1-core box.
    parallel_workers: int = 0

    @property
    def min_speedup(self) -> Optional[float]:
        """The pinned CI floor, ``target_speedup`` less the tolerance.

        Single-vCPU timing jitter cannot flake a floor this far below
        the target, while a real regression still trips it.
        """
        if self.target_speedup is None:
            return None
        return round(self.target_speedup * (1.0 - REGRESSION_TOLERANCE), 3)


def _measure(spec: BenchSpec, impl: Any) -> Tuple[float, Any]:
    """One side of ``spec``: (seconds spent in the body, checksum)."""
    inputs = spec.setup(impl, **spec.size)
    try:
        start = time.perf_counter()
        output = spec.body(impl, inputs)
        elapsed = time.perf_counter() - start
    finally:
        if spec.teardown is not None:
            spec.teardown(inputs)
    return elapsed, spec.checksum(inputs, output)


# ---------------------------------------------------------------------------
# Engine benches: the kernel classes are the implementations, so setup
# builds (and, where a process must exist first, spawns into) a fresh
# simulator and the body drives it.
# ---------------------------------------------------------------------------


def _event_chains(sim_cls, n):
    """A fresh kernel and a factory of callback chains sharing ``n`` events."""
    sim = sim_cls()
    budget = n
    timeout = sim.timeout

    def make_chain(delay):
        def advance(evt):
            nonlocal budget
            budget -= 1
            if budget > 0:
                timeout(delay).add_callback(advance)

        return advance

    return sim, timeout, make_chain


def _start_chains(_kernel, chains, window: int = 128):
    sim, timeout, make_chain = chains
    for i in range(window):
        timeout(1e-4 + i * 1e-6).add_callback(make_chain(1e-3 + i * 1e-6))
    sim.run()


def _one_ticker(sim_cls, n):
    """A fresh kernel with one process spawned to yield ``n`` timeouts."""
    sim = sim_cls()

    def ticker():
        for i in range(n):
            yield sim.timeout(1e-3 + (i % 7) * 1e-6)

    sim.spawn(ticker())
    return sim


def _contended_pool(kernel, n_procs, cycles):
    """A fresh kernel with ``n_procs`` workers spawned on an 8-way pool."""
    sim_cls, resource_cls = kernel
    sim = sim_cls()
    pool = resource_cls(sim, capacity=8)

    def worker(k):
        for _ in range(cycles):
            yield pool.acquire()
            yield sim.timeout(1e-4 + (k % 11) * 1e-6)
            pool.release()

    for k in range(n_procs):
        sim.spawn(worker(k))
    return sim


def _run_sim(_kernel, sim):
    sim.run()


def _sim_clock(sim, _output):
    return sim.now


def _install_search_kernel(kernel, n_requests):
    """Point the E2 workload at ``kernel``; keeps what teardown restores."""
    previous = (search.Simulator, search.Resource)
    search.Simulator, search.Resource = kernel
    return previous, n_requests


def _restore_search_kernel(inputs):
    search.Simulator, search.Resource = inputs[0]


def _search_service(_kernel, inputs):
    return search.run_search_service(
        qps=4000.0, n_requests=inputs[1], accelerated=True
    )


# ---------------------------------------------------------------------------
# Network benches.
# ---------------------------------------------------------------------------


def _shuffle_flows(n_flows: int, seed: int = 7):
    """All-to-all shuffle between two racks: the E6-E8 traffic shape."""
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


def _solver_and_flows(solver_cls, make_flows, n, seed):
    """A solver on a fresh 4x4 leaf-spine and its flow set."""
    fabric = leaf_spine(n_spines=4, n_leaves=4, hosts_per_leaf=8)
    flows = make_flows(n, seed)
    return solver_cls(fabric), flows


def _solve(_solver_cls, inputs):
    solver, flows = inputs
    solver.run(flows)


def _finish_times(inputs, _output):
    return tuple(f.finish_s for f in inputs[1])


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


def _incremental_rates(fabric, flows, schedule):
    """Allocation snapshots from one solver repairing after each event."""
    solver = IncrementalMaxMinSolver(fabric, flows)
    snapshots = [dict(solver.allocations)]
    for method, args in schedule:
        getattr(solver, method)(*args)
        snapshots.append(dict(solver.allocations))
    return snapshots


# ---------------------------------------------------------------------------
# Sharded-engine benches: the same workload through two engines, so the
# checksum (canonical trace digest plus delivery counts) re-proves
# bit-for-bit engine equivalence on every perf run.
# ---------------------------------------------------------------------------


def _fabric_workload(_engine, k, n_requests, seed, shards):
    workload = FabricWorkload(
        fabric="fat-tree", k=k, n_requests=n_requests, duration_s=2e-3,
        seed=seed,
    )
    return workload, shards


def _single_process(workload, _shards):
    return simulate_fabric(workload)


def _fabric_digest(_inputs, run):
    metrics = run.metrics
    return (
        metrics["trace_sha256"],
        metrics["delivered"],
        metrics["dropped"],
        metrics["fault_events"],
    )


# ---------------------------------------------------------------------------
# Model and traffic benches: repro.mc batch kernels vs the frozen scalar
# references in repro._modelref. Sampling inputs and building the corpus
# or scenario happen in setup, so both sides time only the model.
# ---------------------------------------------------------------------------


def _raw_bytes(_inputs, arrays):
    """The exact sample bytes: equivalence is bit for bit."""
    if not isinstance(arrays, tuple):
        arrays = (arrays,)
    return b"".join(array.tobytes() for array in arrays)


def _npv_params(_sweep, n, seed):
    params = uniform_parameter_samples(default_accelerator_ranges(), n, seed)
    return params, n


def _euroserver_costs(_impl, n, seed):
    design = euroserver_reference_design(
        PROCESS_CATALOG["16nm"], PROCESS_CATALOG["28nm"]
    )
    return design, 0.2, n, seed


def _float_costs(_inputs, costs):
    soc, sip = costs
    return tuple(map(float, soc)) + tuple(map(float, sip))


def _shares_with_hhi(sample, hhi, *args):
    sampled = sample(*args)
    return sampled, hhi(sampled)


def _adoption_grid(_impl, n_q, n_t, seed):
    rng = np.random.default_rng(seed)
    q_values = rng.uniform(0.2, 0.8, size=n_q)
    t_grid = np.linspace(-2.0, 25.0, n_t)
    return 0.03, q_values, t_grid


def _replicated_corpus(_impl, replication):
    corpus = generate_corpus()
    role_by_company = {c.company_id: c.role.value for c in corpus.companies}
    themes = [i.themes for i in corpus.interviews] * replication
    roles = [
        role_by_company[i.company_id] for i in corpus.interviews
    ] * replication
    return themes, roles


def _scenario(rate: float = 32_000.0, horizon: float = 25.0) -> ScenarioSpec:
    """Diurnal curve + flash crowd + MMPP bursts + heavy-tailed sessions.

    The defaults give ~1e6 accepted arrivals.
    """
    return ScenarioSpec(
        base_rate_hz=rate,
        horizon_s=horizon,
        diurnal_amplitude=0.35,
        diurnal_period_s=horizon,
        flash_crowds=(
            FlashCrowd(
                start_s=0.3 * horizon,
                ramp_s=0.05 * horizon,
                peak_multiplier=2.0,
                decay_s=0.1 * horizon,
                hold_s=0.05 * horizon,
            ),
        ),
        burst_multiplier=1.5,
        burst_mean_s=0.04 * horizon,
        calm_mean_s=0.16 * horizon,
        session_tail="pareto",
        session_shape=1.6,
        session_scale_s=0.5,
        n_clients=1_000_000,
        client_skew=1.1,
    )


def _arrival_inputs(_impl, rate, horizon, seed):
    """The scenario, its seed and the flash crowds unpacked for the
    scalar reference."""
    spec = _scenario(rate, horizon)
    crowds = tuple(
        (c.start_s, c.ramp_s, c.peak_multiplier, c.decay_s, c.hold_s)
        for c in spec.flash_crowds
    )
    return spec, seed, crowds


def _scalar_arrivals(spec, seed, crowds):
    return _modelref.reference_arrival_times(
        spec.base_rate_hz, spec.horizon_s, spec.diurnal_amplitude,
        spec.diurnal_period_s, crowds, spec.burst_multiplier,
        spec.burst_mean_s, spec.calm_mean_s, seed,
    )


def _batch_sessions(spec, n, seed):
    return session_lengths(spec, n, seed), client_ids(spec, n, seed + 1)


def _scalar_sessions(spec, n, seed):
    lengths = _modelref.reference_session_lengths(
        spec.session_tail, spec.session_median_s, spec.session_sigma,
        spec.session_shape, spec.session_scale_s, n, seed,
    )
    clients = _modelref.reference_client_ids(
        spec.n_clients, spec.client_skew, n, seed + 1
    )
    return lengths, clients


def _injection_inputs(_impl, n, seed):
    """A fresh kernel, ``n`` pre-sorted arrival times, a counting callback."""
    whens = np.cumsum(
        np.random.default_rng(seed).exponential(1.0e-3, size=n)
    ).tolist()
    sim = Simulator()
    fired = [0]

    def absorb(_payload) -> None:
        fired[0] += 1

    return sim, whens, absorb, fired


def _inject_each(sim, whens, absorb, _fired):
    for index, when in enumerate(whens):
        sim._schedule_at(when, partial(absorb, index))


def _drained(inputs, _output):
    """Run the injected calendar out, untimed: both paths must agree."""
    sim, _, _, fired = inputs
    sim.run()
    return fired[0], sim.now, sim.events_processed


def build_specs(quick: bool = False, seed: int = 0) -> List[BenchSpec]:
    """The pinned bench table; ``quick`` shrinks workloads ~10x for tests.

    Each row gives its full and quick size through ``pick``; quick rows
    carry no target, since tiny workloads are noise-dominated. ``seed``
    follows the runner convention: added to each seeded bench's base
    seed, with 0 reproducing historical runs.
    """

    def pick(full, small):
        return small if quick else full

    # The X14 workload both sharded rows race through two engines.
    fabric_transport = dict(
        k=pick(30, 8),  # 1125 switches, 6750 hosts at k=30
        n_requests=pick(100_000, 4_000),
        seed=23 + seed,
        shards=pick(4, 2),
    )
    rows = [
        BenchSpec(
            "event_churn", "engine",
            "{n} chained timeout completions over a rolling window of "
            "pending events",
            Simulator, _perfref.Simulator,
            setup=_event_chains, body=_start_chains,
            checksum=lambda chains, _: chains[0].now,
            size=dict(n=pick(50_000, 5_000)),
            target_speedup=pick(3.0, None),
        ),
        BenchSpec(
            "timeout_churn", "engine",
            "one process yielding {n} timeouts back to back",
            Simulator, _perfref.Simulator,
            setup=_one_ticker, body=_run_sim, checksum=_sim_clock,
            size=dict(n=pick(30_000, 3_000)),
        ),
        BenchSpec(
            "resource_contention", "engine",
            "{n_procs} processes x {cycles} acquire/hold/release cycles on "
            "an 8-way resource",
            (Simulator, Resource), (_perfref.Simulator, _perfref.Resource),
            setup=_contended_pool, body=_run_sim, checksum=_sim_clock,
            size=dict(n_procs=pick(200, 20), cycles=25),
        ),
        # Doubles as a golden-output check: the E2 latency samples must
        # match the reference kernel's exactly.
        BenchSpec(
            "e2_end_to_end", "engine",
            "E2 search-ranking service, {n_requests} accelerated requests "
            "at 4000 qps",
            (Simulator, Resource), (_perfref.Simulator, _perfref.Resource),
            setup=_install_search_kernel, body=_search_service,
            checksum=lambda _, result: tuple(result.latencies_s),
            teardown=_restore_search_kernel,
            size=dict(n_requests=pick(2_000, 200)),
        ),
        # The flow benches compare to 1e-9 relative: the vectorized
        # solver may order exact float ties differently.
        BenchSpec(
            "flow_solver_500", "network",
            "{n}-flow two-rack shuffle through FlowSimulator",
            FlowSimulator, _perfref.ReferenceFlowSimulator,
            setup=partial(_solver_and_flows, make_flows=_shuffle_flows),
            body=_solve, checksum=_finish_times,
            size=dict(n=pick(500, 50), seed=7 + seed),
            exact=False,
            target_speedup=pick(5.0, None),
        ),
        # Contract once and reuse the baseline flow vs copy and
        # recompute per switch.
        BenchSpec(
            "switch_failure_impact", "network",
            "per-switch bisection impact on a 4x8 leaf-spine with "
            "{hosts_per_leaf} hosts per leaf",
            single_switch_failure_impact,
            _perfref.reference_single_switch_failure_impact,
            setup=lambda _, hosts_per_leaf: (
                leaf_spine(n_spines=4, n_leaves=8,
                           hosts_per_leaf=hosts_per_leaf),
            ),
            checksum=lambda _, worst: tuple(
                value for _, value in sorted(worst.items())
            ),
            size=dict(hosts_per_leaf=pick(16, 4)),
            exact=False,
        ),
        BenchSpec(
            "flow_solver_scaling", "network",
            "{n} random-pair flows across a 4x4 leaf-spine",
            FlowSimulator, _perfref.ReferenceFlowSimulator,
            setup=partial(_solver_and_flows, make_flows=_random_flows),
            body=_solve, checksum=_finish_times,
            size=dict(n=pick(150, 30), seed=11 + seed),
            exact=False,
        ),
        # Allocation snapshots after every event must match bit for bit.
        BenchSpec(
            "incremental_flow_repair", "network",
            "{n_events}-event localized fault schedule over a k={k} "
            "fat-tree with {n_flows} flows: incremental repair vs full "
            "reroute + re-solve per event",
            _incremental_rates, _perfref.reference_fault_schedule_rates,
            setup=lambda _, **size: _fault_schedule_workload(**size),
            size=dict(
                k=pick(30, 8),  # 1125 switches at k=30
                n_flows=pick(24, 10),
                n_events=pick(10, 6),
                seed=17 + seed,
            ),
            target_speedup=pick(10.0, None),
        ),
        # The floor binds only on machines with at least as many cores as
        # workers; a run on fewer reports the target as unverified.
        BenchSpec(
            "sharded_fabric_4w", "sharded",
            "k={k} fat-tree transport ({n_requests} requests): {shards} "
            "worker processes under conservative windows vs the "
            "single-process kernel",
            partial(simulate_fabric_sharded, inline=False), _single_process,
            setup=_fabric_workload, checksum=_fabric_digest,
            size=fabric_transport,
            target_speedup=pick(3.0, None),
            parallel_workers=pick(4, 2),
        ),
        # All shards inline in one process: the conservative-window
        # protocol overhead without parallel hardware, so below 1x.
        BenchSpec(
            "sharded_window_protocol", "sharded",
            "same workload, {shards} shards inline in one process: "
            "conservative-window protocol overhead without parallel "
            "hardware",
            partial(simulate_fabric_sharded, inline=True), _single_process,
            setup=_fabric_workload, checksum=_fabric_digest,
            size=fabric_transport,
        ),
        BenchSpec(
            "mc_commodity_year", "models",
            "{n} sampled commodity-year scenarios (TRL 4, risk 0.35, 1.5x "
            "acceleration)",
            commodity_year_samples,
            _modelref.reference_commodity_year_samples,
            setup=lambda _, n, seed: (4, 0.35, 1.5, n, seed),
            checksum=_raw_bytes,
            size=dict(n=pick(200_000, 20_000), seed=29 + seed),
            target_speedup=pick(10.0, None),
        ),
        BenchSpec(
            "roi_npv_sweep", "models",
            "NPV over {n} sampled accelerator parameter vectors (the "
            "Finding-2 uncertainty set)",
            lambda params, _n: npv_batch(params),
            lambda params, n: _modelref.reference_npv_sweep(params, n, 3),
            setup=_npv_params, checksum=_raw_bytes,
            size=dict(n=pick(40_000, 4_000), seed=seed),
            target_speedup=pick(10.0, None),
        ),
        # 1e-9 relative: numpy's SIMD pow differs from scalar libm pow by
        # 1 ULP in the yield term (see repro.mc.soc_sip).
        BenchSpec(
            "soc_sip_unit_costs", "models",
            "{n} Monte-Carlo SoC/SiP unit costs on the EUROSERVER design "
            "(sigma 0.2 area jitter)",
            sampled_unit_costs, _modelref.reference_sampled_unit_costs,
            setup=_euroserver_costs, checksum=_float_costs,
            size=dict(n=pick(6_000, 600), seed=seed),
            exact=False,
        ),
        BenchSpec(
            "market_concentration", "models",
            "{n} jittered share vectors + HHI for the datacenter-switch "
            "market",
            partial(_shares_with_hhi, sampled_market_shares, hhi_batch),
            partial(
                _shares_with_hhi,
                _modelref.reference_sampled_market_shares,
                _modelref.reference_hhi,
            ),
            # The datacenter-switch market's vendor shares.
            setup=lambda _, n, seed: (
                [0.55, 0.12, 0.10, 0.08, 0.15], 0.3, n, seed
            ),
            checksum=_raw_bytes,
            size=dict(n=pick(60_000, 6_000), seed=seed),
        ),
        BenchSpec(
            "adoption_paths", "models",
            "{n_q} x {n_t} Bass cumulative-adoption grid (sampled q, "
            "p=0.03)",
            bass_adoption_paths, _modelref.reference_adoption_paths,
            setup=_adoption_grid, checksum=_raw_bytes,
            size=dict(n_q=pick(500, 50), n_t=pick(300, 30), seed=13 + seed),
        ),
        BenchSpec(
            "survey_theme_stats", "models",
            "all-theme fraction + role cross-tab over a "
            "{replication}x-replicated interview corpus",
            theme_statistics, _modelref.reference_theme_statistics,
            setup=_replicated_corpus,
            body=lambda impl, corpus: impl(*corpus, list(ALL_THEMES)),
            size=dict(replication=pick(100, 10)),
            target_speedup=pick(5.0, None),
        ),
        # Accepted arrival times must match bit for bit. Quick shrinks
        # both the rate and the horizon (~100x fewer candidates).
        BenchSpec(
            "traffic_arrivals_1m", "traffic",
            "{rate:.0f} Hz x {horizon:.1f} s composed scenario (diurnal + "
            "flash crowd + MMPP bursts): one thinning batch draw vs the "
            "frozen per-candidate scalar loop",
            lambda spec, seed, _crowds: arrival_times(spec, seed),
            _scalar_arrivals,
            setup=_arrival_inputs, checksum=_raw_bytes,
            size=dict(
                rate=pick(32_000.0, 3_200.0),
                horizon=pick(25.0, 2.5),
                seed=41 + seed,
            ),
            target_speedup=pick(50.0, None),
        ),
        BenchSpec(
            "traffic_sessions_clients", "traffic",
            "{n} Pareto session lengths + Zipf client ids as two batch "
            "draws vs the frozen scalar loops",
            _batch_sessions, _scalar_sessions,
            setup=lambda _, n, seed: (_scenario(), n, seed),
            checksum=_raw_bytes,
            size=dict(n=pick(1_000_000, 10_000), seed=43 + seed),
            target_speedup=pick(10.0, None),
        ),
        # Only the injection is timed; the drain in the checksum proves
        # both paths scheduled an identical calendar.
        BenchSpec(
            "bulk_injection", "traffic",
            "{n} pre-sorted arrivals into the two-tier calendar: "
            "Simulator.schedule_batch vs a per-event scheduling loop "
            "(drain untimed, checksummed)",
            lambda sim, whens, absorb, _fired: sim.schedule_batch(
                whens, absorb
            ),
            _inject_each,
            setup=_injection_inputs, checksum=_drained,
            size=dict(n=pick(200_000, 5_000), seed=97 + seed),
            target_speedup=pick(2.0, None),
        ),
    ]
    return [
        replace(row, description=row.description.format(**row.size))
        for row in rows
    ]


# ---------------------------------------------------------------------------
# Running, gating and reporting.
# ---------------------------------------------------------------------------


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
    _, cand_sum = _measure(spec, spec.candidate)
    _, ref_sum = _measure(spec, spec.reference)
    _verify_checksums(spec, cand_sum, ref_sum)

    candidate_times: List[float] = []
    reference_times: List[float] = []
    for _ in range(rounds):
        # Interleaved so slow machine-wide drift (thermal, noisy
        # neighbours) hits both sides equally.
        candidate_times.append(_measure(spec, spec.candidate)[0])
        reference_times.append(_measure(spec, spec.reference)[0])

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
        entry["min_speedup"] = spec.min_speedup
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
                gates.append(
                    f"target {spec.target_speedup:.1f}x, "
                    f"floor {spec.min_speedup:.2f}x"
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
    """CLI for ``python -m repro perf``."""
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
