"""Runnable entry points for the registered experiments.

Each ``run_eN(config, seed)`` wraps the computation that used to live
only inside ``benchmarks/test_bench_*.py`` and returns a
:class:`~repro.runner.results.RunResult` whose ``metrics`` carry the
exhibit's headline numbers. The benchmark files are now thin asserts
over these metrics, and the same functions back ``python -m repro run``.

Conventions:

- ``config`` holds *overrides*; each entrypoint merges them over its
  defaults (the benchmark suite's historical problem sizes) and records
  the merged, effective config in the result. A key that no default
  names raises :class:`~repro.errors.ConfigError`, so the shard comes
  back ``error`` naming the unknown and the valid keys, after one
  attempt.
- ``seed`` is the grid seed. Entrypoints add it to their legacy base
  seed, so seed 0 reproduces the benchmark numbers bit for bit and
  different experiments at the same grid seed stay decorrelated.
  Purely analytic exhibits ignore the seed (and say so here).
- Everything imports lazily inside the function body, keeping
  ``import repro.runner`` cheap and cycle-free.

``QUICK_CONFIGS`` maps each experiment to a reduced problem size for
smoke tests and ``python -m repro run --quick``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.errors import ConfigError
from repro.runner.results import RunResult

#: Per-experiment reduced problem sizes for smoke runs.
QUICK_CONFIGS: Dict[str, Dict[str, Any]] = {
    "E1": {},
    "E2": {"n_requests": 800, "sla_requests": 400},
    "E3": {},
    "E4": {},
    "E5": {},
    "E6": {},
    "E7": {},
    "E8": {"n_demands": 600},
    "E9": {},
    "E10": {},
    "E11": {"n_docs": 600},
    "E12": {"scale": 4},
    "E13": {},
    "E14": {"n_events": 20_000},
    "E15": {},
    "E16": {},
    "X2": {},
    "X7": {},
    "X11": {},
    "X12": {"n_requests": 600, "n_reads": 400, "n_jobs": 10},
    "X14": {"k": 8, "n_requests": 8_000, "duration_s": 2e-3, "shards": 2},
    "X15": {"n_requests": 3_000},
    "X16": {"inner_seeds": 2, "probe_sleep_s": 0.1, "service_sleep_s": 1.0},
    "X17": {"search_horizon_s": 0.8, "memory_horizon_s": 1.0},
}


def _merge(defaults: Dict[str, Any], config: Mapping[str, Any]) -> Dict[str, Any]:
    """Overrides over defaults; a key no default names is a ConfigError.

    A misspelled override must fail its shard, not silently run the
    default and record the typo as if it had been applied.
    """
    unknown = sorted(set(config) - set(defaults), key=str)
    if unknown:
        raise ConfigError(
            f"unknown config key(s): {', '.join(map(str, unknown))}; "
            f"valid keys: {', '.join(sorted(defaults))}"
        )
    merged = dict(defaults)
    merged.update(config)
    return merged


def _result(
    experiment_id: str,
    seed: int,
    config: Dict[str, Any],
    metrics: Dict[str, Any],
) -> RunResult:
    """Assemble the ``ok`` result for one entrypoint."""
    return RunResult(
        experiment_id=experiment_id,
        seed=seed,
        config=config,
        metrics=metrics,
    )


def run_e1(config: Mapping[str, Any], seed: int) -> RunResult:
    """E1: survey headline counts, sector mix and the four Key Findings."""
    from repro.survey import (
        generate_corpus,
        headline_counts,
        key_findings,
        sector_mix,
    )

    cfg = _merge({"n_interviews": 89, "n_companies": 70}, config)
    corpus = generate_corpus(
        n_interviews=cfg["n_interviews"],
        n_companies=cfg["n_companies"],
        seed=619_788 + seed,
    )
    counts = headline_counts(corpus)
    metrics: Dict[str, Any] = {
        "n_interviews": counts["n_interviews"],
        "n_companies": counts["n_companies"],
    }
    for sector, n in sorted(sector_mix(corpus).items()):
        metrics[f"sector_mix.{sector}"] = n
    findings = key_findings(corpus)
    metrics["findings_hold"] = all(f.holds for f in findings)
    for finding in findings:
        metrics[f"finding{finding.finding_id}.holds"] = finding.holds
        for stat, value in sorted(finding.statistics.items()):
            metrics[f"finding{finding.finding_id}.{stat}"] = value
    return _result("E1", seed, cfg, metrics)


def run_e2(config: Mapping[str, Any], seed: int) -> RunResult:
    """E2: Catapult tail-latency reduction and iso-SLA throughput gain."""
    from repro.workloads import max_qps_within_sla, tail_latency_reduction

    cfg = _merge(
        {
            "qps": 2_000.0,
            "n_requests": 12_000,
            "sla_s": 0.012,
            "sla_requests": 4_000,
        },
        config,
    )
    run_seed = 2016 + seed
    point = tail_latency_reduction(
        cfg["qps"], n_requests=cfg["n_requests"], seed=run_seed
    )
    base_qps = max_qps_within_sla(
        cfg["sla_s"], accelerated=False, n_requests=cfg["sla_requests"],
        seed=run_seed, qps_hi=20_000,
    )
    accel_qps = max_qps_within_sla(
        cfg["sla_s"], accelerated=True, n_requests=cfg["sla_requests"],
        seed=run_seed, qps_hi=20_000,
    )
    metrics = {
        "p50_cpu_s": point["p50_cpu_s"],
        "p50_fpga_s": point["p50_fpga_s"],
        "p99_cpu_s": point["p99_cpu_s"],
        "p99_fpga_s": point["p99_fpga_s"],
        "tail_reduction": point["tail_reduction"],
        "iso_sla_qps_cpu": base_qps,
        "iso_sla_qps_fpga": accel_qps,
        "iso_sla_gain": accel_qps / base_qps,
    }
    return _result("E2", seed, cfg, metrics)


def run_e3(config: Mapping[str, Any], seed: int) -> RunResult:
    """E3: per-block accelerator speedups vs CPU (analytic; seed unused)."""
    from repro.analytics import default_blocks
    from repro.node import arria10_fpga, inference_asic, nvidia_k80, xeon_e5

    cfg = _merge({"batch": 50_000_000}, config)
    batch = cfg["batch"]
    registry = default_blocks()
    cpu = xeon_e5()
    devices = [nvidia_k80(), arria10_fpga(), inference_asic()]
    metrics: Dict[str, Any] = {}
    for name in registry.names():
        block = registry.get(name)
        cpu_rate = block.throughput_records_per_s(cpu, batch)
        best = 1.0
        for device in devices:
            if block.runs_on(device):
                gain = block.throughput_records_per_s(device, batch) / cpu_rate
                metrics[f"gain.{name}.{device.name}"] = gain
                best = max(best, gain)
        metrics[f"best_gain.{name}"] = best
    fpga = arria10_fpga()
    for name in ("regex-extract", "dnn-inference", "compression"):
        block = registry.get(name)
        cpu_energy = block.time_s(cpu, batch) * cpu.tdp_w
        fpga_energy = block.time_s(fpga, batch) * fpga.tdp_w
        metrics[f"energy_gain.{name}"] = cpu_energy / fpga_energy
    return _result("E3", seed, cfg, metrics)


def run_e4(config: Mapping[str, Any], seed: int) -> RunResult:
    """E4: GPGPU NPV vs utilization and breakevens (analytic)."""
    from dataclasses import replace

    from repro.econ import (
        AcceleratorInvestment,
        breakeven_speedup,
        breakeven_utilization,
    )
    from repro.mc import npv_utilization_sweep

    cfg = _merge(
        {
            "hardware_usd": 50_000.0,
            "port_effort_person_months": 9.0,
            "speedup": 4.0,
            "baseline_compute_value_usd_per_year": 250_000.0,
            "accelerator_power_w": 2_400.0,
            "horizon_years": 3,
        },
        config,
    )
    investment = AcceleratorInvestment(
        hardware_usd=cfg["hardware_usd"],
        port_effort_person_months=cfg["port_effort_person_months"],
        speedup=cfg["speedup"],
        baseline_compute_value_usd_per_year=(
            cfg["baseline_compute_value_usd_per_year"]
        ),
        accelerator_power_w=cfg["accelerator_power_w"],
        utilization=0.5,
        horizon_years=cfg["horizon_years"],
    )
    metrics: Dict[str, Any] = {}
    utilizations = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
    # One batch NPV call; bit-for-bit equal to the scalar per-point
    # sweep, so cached results.json is unchanged.
    for utilization, value in zip(
        utilizations, npv_utilization_sweep(investment, utilizations)
    ):
        metrics[f"npv_usd.{utilization:g}"] = float(value)
    breakeven = breakeven_utilization(investment)
    metrics["breakeven_utilization"] = breakeven
    for utilization in (0.15, 0.3, 0.6):
        k_star = breakeven_speedup(replace(investment, utilization=utilization))
        metrics[f"breakeven_speedup.{utilization:g}"] = (
            k_star if k_star is not None else None
        )
    return _result("E4", seed, cfg, metrics)


def run_e5(config: Mapping[str, Any], seed: int) -> RunResult:
    """E5: SoC-vs-SiP unit cost, crossover volume, upgrade cost (analytic)."""
    from repro.econ import PROCESS_CATALOG, euroserver_reference_design
    from repro.mc import cost_per_unit_curve

    cfg = _merge({"advanced_node": "16nm", "mature_node": "28nm"}, config)
    design = euroserver_reference_design(
        PROCESS_CATALOG[cfg["advanced_node"]],
        PROCESS_CATALOG[cfg["mature_node"]],
    )
    metrics: Dict[str, Any] = {}
    volumes = (1e4, 1e5, 1e6, 1e7, 1e8)
    # One vectorized sweep (unit costs and NRE aggregated once);
    # bit-for-bit equal to per-volume cost_per_unit_at_volume calls.
    soc_curve, sip_curve = cost_per_unit_curve(design, volumes)
    for volume, soc, sip in zip(volumes, soc_curve, sip_curve):
        metrics[f"usd_per_unit.soc.{volume:.0e}"] = float(soc)
        metrics[f"usd_per_unit.sip.{volume:.0e}"] = float(sip)
    metrics["crossover_volume"] = design.crossover_volume()
    upgrade = design.interface_upgrade_cost_usd("network-io")
    metrics["upgrade_usd.soc"] = upgrade["soc"]
    metrics["upgrade_usd.sip"] = upgrade["sip"]
    return _result("E5", seed, cfg, metrics)


def run_e6(config: Mapping[str, Any], seed: int) -> RunResult:
    """E6: branded / white-box / bare-metal fleet TCO sweep (analytic)."""
    from repro.network import (
        bare_metal_switch,
        branded_switch,
        fleet_tco_usd,
        white_box_switch,
    )

    cfg = _merge({"fleets": [50, 200, 1_000, 5_000, 20_000]}, config)
    models = {
        "branded": branded_switch(),
        "white-box": white_box_switch(),
        "bare-metal": bare_metal_switch(),
    }
    metrics: Dict[str, Any] = {}
    for fleet in cfg["fleets"]:
        per_switch = {
            name: fleet_tco_usd(model, fleet) / fleet
            for name, model in models.items()
        }
        for name, usd in per_switch.items():
            metrics[f"tco_usd_per_switch.{fleet}.{name}"] = usd
        metrics[f"winner.{fleet}"] = min(per_switch, key=per_switch.get)
    return _result("E6", seed, cfg, metrics)


def run_e7(config: Mapping[str, Any], seed: int) -> RunResult:
    """E7: SDN vs legacy policy rollout across fabric sizes (analytic)."""
    from repro.network import LegacyManagement, SdnController, fat_tree, leaf_spine

    cfg = _merge({"n_rules": 10}, config)
    fabrics = {
        "small": leaf_spine(4, 8, 4),
        "medium": fat_tree(8),
        "large": fat_tree(10),
    }
    legacy = LegacyManagement()
    metrics: Dict[str, Any] = {}
    for label, fabric in fabrics.items():
        controller = SdnController(fabric)
        n_switches = len(fabric.switches)
        sdn_s = controller.policy_rollout_s(cfg["n_rules"])
        legacy_s = legacy.policy_rollout_s(n_switches)
        metrics[f"switches.{label}"] = n_switches
        metrics[f"sdn_rollout_s.{label}"] = sdn_s
        metrics[f"legacy_rollout_s.{label}"] = legacy_s
        metrics[f"speedup.{label}"] = legacy_s / sdn_s
    return _result("E7", seed, cfg, metrics)


def run_e8(config: Mapping[str, Any], seed: int) -> RunResult:
    """E8: converged-vs-composable stranding and refresh cost."""
    from repro.cluster import (
        ResourceVector,
        skewed_demand_stream,
        stranding_experiment,
        upgrade_cost_comparison,
    )
    from repro.engine import RandomStream

    cfg = _merge(
        {"n_demands": 3_000, "n_servers": 24, "n_refresh_servers": 1_000},
        config,
    )
    rng = RandomStream(20_160_318 + seed)
    demands = skewed_demand_stream(cfg["n_demands"], rng)
    stranding = stranding_experiment(
        demands,
        n_servers=cfg["n_servers"],
        server_capacity=ResourceVector(32, 256, 4.0),
    )
    metrics: Dict[str, Any] = {}
    for arch in ("converged", "composable"):
        stats = stranding[arch]
        metrics[f"placed.{arch}"] = int(stats["placed"])
        metrics[f"core_util.{arch}"] = stats["cores"]
        metrics[f"mem_util.{arch}"] = stats["memory_gb"]
        metrics[f"storage_util.{arch}"] = stats["storage_tb"]
    metrics["placement_advantage"] = (
        metrics["placed.composable"] / metrics["placed.converged"]
    )
    for dim in ("cores", "memory_gb", "storage_tb"):
        comparison = upgrade_cost_comparison(cfg["n_refresh_servers"], dim)
        metrics[f"refresh_usd.converged.{dim}"] = comparison["converged_usd"]
        metrics[f"refresh_usd.composable.{dim}"] = comparison["composable_usd"]
        metrics[f"refresh_savings.{dim}"] = comparison["savings_fraction"]
    return _result("E8", seed, cfg, metrics)


def run_e9(config: Mapping[str, Any], seed: int) -> RunResult:
    """E9: Ethernet generation roadmap and 400GbE forecast (analytic)."""
    from repro.core import commodity_year_forecast
    from repro.core.technology import get_technology
    from repro.network import commodity_generation, generations_by_year

    cfg = _merge({"funded_multiplier": 1.8}, config)
    metrics: Dict[str, Any] = {}
    for generation in generations_by_year():
        metrics[f"standard_year.{generation.name}"] = generation.standard_year
        metrics[f"volume_year.{generation.name}"] = generation.volume_year
        metrics[f"usd_per_gbps.{generation.name}"] = generation.usd_per_gbps
        metrics[f"gbps_per_w.{generation.name}"] = generation.gbps_per_w
        metrics[f"photonic.{generation.name}"] = generation.photonic
    tech = get_technology("400gbe")
    metrics["forecast_400gbe.unfunded"] = commodity_year_forecast(
        tech.trl_2016, 1.0
    )
    metrics["forecast_400gbe.funded"] = commodity_year_forecast(
        tech.trl_2016, cfg["funded_multiplier"]
    )
    metrics["commodity_2016"] = commodity_generation(2016).name
    return _result("E9", seed, cfg, metrics)


def run_e10(config: Mapping[str, Any], seed: int) -> RunResult:
    """E10: FIFO / greedy-EFT / HEFT makespans on a mixed pool (analytic)."""
    from repro.node import arria10_fpga, nvidia_k80, xeon_e5
    from repro.scheduler import Executor, HeterogeneousScheduler, fork_join_job

    cfg = _merge({"width": 10, "work": 8_000_000}, config)
    scheduler = HeterogeneousScheduler([
        Executor("cpu0", "hostA", xeon_e5()),
        Executor("cpu1", "hostB", xeon_e5()),
        Executor("gpu0", "hostA", nvidia_k80()),
        Executor("fpga0", "hostB", arria10_fpga()),
    ])
    job = fork_join_job(
        "analytics", cfg["width"], "dense-gemm", "hash-aggregate", cfg["work"]
    )
    metrics = {
        "makespan_s.fifo": scheduler.fifo(job).makespan_s,
        "makespan_s.greedy_eft": scheduler.greedy_eft(job).makespan_s,
        "makespan_s.heft": scheduler.heft(job).makespan_s,
    }
    metrics["heft_speedup"] = (
        metrics["makespan_s.fifo"] / metrics["makespan_s.heft"]
    )
    return _result("E10", seed, cfg, metrics)


def run_e11(config: Mapping[str, Any], seed: int) -> RunResult:
    """E11: cpu-only vs greedy-offload dataflow pipeline end to end."""
    from repro.cluster import uniform_cluster
    from repro.frameworks import (
        BatchExecutor,
        PartitionedDataset,
        Plan,
        cpu_only,
        greedy_time,
    )
    from repro.network import leaf_spine
    from repro.node import accelerated_server, arria10_fpga, xeon_e5
    from repro.workloads import zipf_documents

    cfg = _merge({"n_docs": 4_000, "n_partitions": 8}, config)
    cluster = uniform_cluster(
        leaf_spine(2, 2, 2),
        lambda: accelerated_server(xeon_e5(), arria10_fpga()),
    )
    docs = zipf_documents(cfg["n_docs"], 40, seed=3 + seed)
    dataset = PartitionedDataset.from_records(
        docs, cfg["n_partitions"], record_bytes=240
    )
    plan = (
        Plan.source()
        .map(lambda s: s, block="regex-extract", label="extract")
        .filter(lambda s: "data" in s, block="filter-scan", label="select")
        .map(lambda s: (s.split()[0], 1), block="filter-scan", label="pair")
        .reduce_by_key(lambda kv: kv[0], lambda a, b: (a[0], a[1] + b[1]),
                       label="aggregate")
    )
    base = BatchExecutor(cluster, policy=cpu_only()).run(plan, dataset)
    offloaded = BatchExecutor(cluster, policy=greedy_time()).run(plan, dataset)
    metrics = {
        "sim_time_s.cpu_only": base.sim_time_s,
        "sim_time_s.greedy_time": offloaded.sim_time_s,
        "energy_j.cpu_only": base.energy_j,
        "energy_j.greedy_time": offloaded.energy_j,
        "gain": base.sim_time_s / offloaded.sim_time_s,
        "records_match": sorted(offloaded.records) == sorted(base.records),
        "n_output_records": len(offloaded.records),
    }
    return _result("E11", seed, cfg, metrics)


def run_e12(config: Mapping[str, Any], seed: int) -> RunResult:
    """E12: the R9 suite across four architectures (analytic)."""
    from repro.cluster import uniform_cluster
    from repro.frameworks import cpu_only, greedy_energy, greedy_time
    from repro.network import leaf_spine
    from repro.node import (
        accelerated_server,
        arria10_fpga,
        commodity_server,
        nvidia_k80,
        xeon_e5,
    )
    from repro.workloads import compare_architectures

    cfg = _merge({"scale": 20}, config)
    fabric = lambda: leaf_spine(2, 2, 2)  # noqa: E731 - tiny local factory
    configurations = {
        "cpu": (
            uniform_cluster(fabric(), lambda: commodity_server(xeon_e5())),
            cpu_only(),
        ),
        "cpu+gpu": (
            uniform_cluster(
                fabric(), lambda: accelerated_server(xeon_e5(), nvidia_k80())
            ),
            greedy_time(),
        ),
        "cpu+fpga": (
            uniform_cluster(
                fabric(), lambda: accelerated_server(xeon_e5(), arria10_fpga())
            ),
            greedy_time(),
        ),
        "cpu+fpga-energy": (
            uniform_cluster(
                fabric(), lambda: accelerated_server(xeon_e5(), arria10_fpga())
            ),
            greedy_energy(),
        ),
    }
    results = compare_architectures(configurations, cfg["scale"])
    metrics: Dict[str, Any] = {}
    outputs_agree = True
    for arch, scores in results.items():
        for score in scores:
            metrics[f"sim_time_s.{arch}.{score.benchmark}"] = score.sim_time_s
            metrics[f"energy_j.{arch}.{score.benchmark}"] = score.energy_j
    for score in results["cpu"]:
        counts = {
            arch: next(
                s for s in results[arch] if s.benchmark == score.benchmark
            ).n_output_records
            for arch in results
        }
        if len(set(counts.values())) != 1:
            outputs_agree = False
    metrics["outputs_agree"] = outputs_agree
    return _result("E12", seed, cfg, metrics)


def run_e13(config: Mapping[str, Any], seed: int) -> RunResult:
    """E13: 2016 market concentration and lock-in economics (analytic)."""
    from repro.ecosystem import MARKETS_2016, concentration_report, lock_in_premium

    cfg = _merge({"annual_license_usd": 250_000.0}, config)
    metrics: Dict[str, Any] = {}
    for row in concentration_report():
        market = row["market"]
        metrics[f"leader.{market}"] = row["leader"]
        metrics[f"leader_share.{market}"] = row["leader_share"]
        metrics[f"hhi.{market}"] = row["hhi"]
    market = MARKETS_2016["gpgpu-top500"]
    for kloc in (50.0, 200.0, 1_000.0):
        premium = lock_in_premium(
            market, kloc, annual_license_usd=cfg["annual_license_usd"]
        )
        metrics[f"years_protected.{kloc:g}kloc"] = premium["years_protected"]
    return _result("E13", seed, cfg, metrics)


def run_e14(config: Mapping[str, Any], seed: int) -> RunResult:
    """E14: science-stream trigger rates across devices."""
    from repro.node import arria10_fpga, nvidia_k80, xeon_e5
    from repro.workloads import convergence_comparison

    cfg = _merge({"n_events": 500_000}, config)
    comparison = convergence_comparison(
        [xeon_e5(), nvidia_k80(), arria10_fpga()], cfg["n_events"]
    )
    cpu_rate = comparison["xeon-e5"].sustainable_rate_hz
    metrics: Dict[str, Any] = {}
    for name, report in sorted(comparison.items()):
        metrics[f"rate_hz.{name}"] = report.sustainable_rate_hz
        metrics[f"vs_cpu.{name}"] = report.sustainable_rate_hz / cpu_rate
    metrics["triggered_agree"] = (
        len({r.n_triggered for r in comparison.values()}) == 1
    )
    metrics["n_triggered"] = comparison["xeon-e5"].n_triggered
    return _result("E14", seed, cfg, metrics)


def run_e15(config: Mapping[str, Any], seed: int) -> RunResult:
    """E15: programming-model coverage and porting economics (analytic)."""
    from repro.node import (
        AbstractionMatrix,
        PortingStrategy,
        ProgrammingModel,
        achievable_throughput_fraction,
        default_registry,
        port_effort_person_months,
    )

    cfg = _merge({"n_kernels": 10}, config)
    devices = list(default_registry())
    matrix = AbstractionMatrix(devices)
    metrics: Dict[str, Any] = {"n_devices": len(devices)}
    for model in ProgrammingModel:
        per_device = matrix.coverage(model)
        metrics[f"devices_reached.{model.value}"] = sum(
            1 for v in per_device.values() if v > 0
        )
        metrics[f"mean_efficiency.{model.value}"] = (
            sum(per_device.values()) / len(per_device)
        )
    best_model, reached, _ = matrix.best_universal_model()
    metrics["best_universal_model"] = best_model.value
    metrics["best_universal_reached"] = reached
    metrics["fragmentation_index"] = matrix.fragmentation_index()
    for name in ("cpu_only", "portable_kernel", "native_everywhere"):
        strategy = PortingStrategy(name)
        metrics[f"port_effort_pm.{name}"] = port_effort_person_months(
            strategy, cfg["n_kernels"], devices
        )
        metrics[f"mean_throughput_frac.{name}"] = sum(
            achievable_throughput_fraction(strategy, d) for d in devices
        ) / len(devices)
    return _result("E15", seed, cfg, metrics)


def run_e16(config: Mapping[str, Any], seed: int) -> RunResult:
    """E16: recommendation ranking and the funding portfolio."""
    from repro.core import (
        RECOMMENDATIONS,
        greedy_portfolio,
        optimize_portfolio,
        score_all,
    )
    from repro.survey import generate_corpus

    cfg = _merge({"budgets_meur": [50.0, 100.0, 200.0, 335.0]}, config)
    corpus = generate_corpus(seed=619_788 + seed)
    scored = score_all(corpus)
    metrics: Dict[str, Any] = {
        "n_recommendations": len(scored),
        "ranking": [s.recommendation.rec_id for s in scored],
    }
    for entry in scored:
        rec_id = entry.recommendation.rec_id
        metrics[f"evidence.R{rec_id}"] = entry.evidence_score
        metrics[f"strategic.R{rec_id}"] = entry.strategic_score
        metrics[f"urgency.R{rec_id}"] = entry.urgency_score
        metrics[f"priority.R{rec_id}"] = entry.priority
    for budget in cfg["budgets_meur"]:
        exact = optimize_portfolio(scored, budget)
        greedy = greedy_portfolio(scored, budget)
        metrics[f"knapsack_priority.{budget:g}"] = exact.total_priority
        metrics[f"greedy_priority.{budget:g}"] = greedy.total_priority
        metrics[f"funded.{budget:g}"] = list(exact.rec_ids)
    metrics["full_budget_funds_all"] = (
        len(optimize_portfolio(scored, cfg["budgets_meur"][-1]).selected)
        == len(RECOMMENDATIONS)
    )
    return _result("E16", seed, cfg, metrics)


def run_x2(config: Mapping[str, Any], seed: int) -> RunResult:
    """X2: FIFO whole-pool vs shared online allocation of a job stream."""
    from repro.node import arria10_fpga, nvidia_k80, xeon_e5
    from repro.scheduler import (
        Executor,
        OnlineScheduler,
        chain_job,
        poisson_job_stream,
    )

    cfg = _merge({}, config)
    scheduler = OnlineScheduler([
        Executor("cpu0", "hA", xeon_e5()),
        Executor("cpu1", "hB", xeon_e5()),
        Executor("gpu0", "hA", nvidia_k80()),
        Executor("fpga0", "hB", arria10_fpga()),
    ])
    stream = poisson_job_stream(
        10,
        0.002,
        job_factory=lambda i: chain_job(
            f"job{i}",
            ["filter-scan", "dense-gemm", "hash-aggregate"],
            1_000_000,
        ),
        seed=21 + seed,
    )
    exclusive = scheduler.run_exclusive(stream)
    shared = scheduler.run_shared(stream)
    metrics = {
        "exclusive_mct_s": exclusive.mean_completion_time_s,
        "shared_mct_s": shared.mean_completion_time_s,
        "gain": (
            exclusive.mean_completion_time_s / shared.mean_completion_time_s
        ),
    }
    return _result("X2", seed, cfg, metrics)


def run_x7(config: Mapping[str, Any], seed: int) -> RunResult:
    """X7: ECMP vs least-loaded flow placement (analytic; seed unused)."""
    from repro import units
    from repro.network import compare_assignment_policies, fat_tree

    cfg = _merge({}, config)
    fabric = fat_tree(4)
    hosts = fabric.hosts
    half = len(hosts) // 2
    specs = [
        (hosts[i], hosts[half + i], 250 * units.MB) for i in range(8)
    ]
    comparison = compare_assignment_policies(fabric, specs)
    metrics = {
        "ecmp_completion_s": comparison.ecmp_completion_s,
        "least_loaded_completion_s": comparison.least_loaded_completion_s,
        "speedup": comparison.speedup,
        "ecmp_imbalance": comparison.ecmp_imbalance,
        "least_loaded_imbalance": comparison.least_loaded_imbalance,
    }
    return _result("X7", seed, cfg, metrics)


def run_x11(config: Mapping[str, Any], seed: int) -> RunResult:
    """X11: incremental max-min repair through a link/node fault schedule."""
    from repro import units
    from repro.network import fat_tree
    from repro.network.flows import Flow, IncrementalMaxMinSolver

    cfg = _merge({}, config)
    fabric = fat_tree(4)
    hosts = fabric.hosts
    half = len(hosts) // 2
    flows = [
        Flow(
            i,
            hosts[(i + seed) % half],
            hosts[half + (2 * i + seed) % half],
            100 * units.MB,
        )
        for i in range(12)
    ]
    solver = IncrementalMaxMinSolver(fabric, flows)
    schedule = (
        ("fail_link", ("agg0-0", "core0-0")),
        ("fail_link", ("tor0-0", "agg0-1")),
        ("restore_link", ("agg0-0", "core0-0")),
        ("fail_node", ("agg1-0",)),
        ("restore_link", ("tor0-0", "agg0-1")),
        ("restore_node", ("agg1-0",)),
    )
    for op, args in schedule:
        getattr(solver, op)(*args)
    total_rate = sum(solver.allocations.values())
    metrics = {
        "flows": len(flows),
        "full_solves": solver.full_solves,
        "incremental_repairs": solver.incremental_repairs,
        "total_rate_gbytes_per_s": total_rate / units.GB,
    }
    return _result("X11", seed, cfg, metrics)


def run_x12(config: Mapping[str, Any], seed: int) -> RunResult:
    """X12: workloads under injected faults, resilience policies on/off."""
    from repro.workloads import chaos_exhibit

    cfg = _merge(
        {"n_requests": 4_000, "n_reads": 2_500, "n_jobs": 24}, config
    )
    metrics = chaos_exhibit(
        n_requests=cfg["n_requests"],
        n_reads=cfg["n_reads"],
        n_jobs=cfg["n_jobs"],
        seed=seed,
    )
    return _result("X12", seed, cfg, metrics)


def run_x14(config: Mapping[str, Any], seed: int) -> RunResult:
    """X14: 10k-switch fabric transport, sharded conservative-time DES.

    The flagship scale exhibit: a k=90 fat-tree (10,125 switches,
    182,250 hosts) carrying a million-request transport workload under a
    fault schedule, simulated across ``shards`` worker processes by
    :func:`repro.workloads.fabricsim.simulate_fabric_sharded`. With
    ``shards=1`` the same workload runs on the true single-process
    engine, and the merged trace is bit-for-bit identical either way --
    set ``trace_out`` to write the canonical trace for a byte-level
    comparison (the CI equivalence step).
    """
    from pathlib import Path

    from repro.engine.faults import FaultSpec
    from repro.engine.sharded import canonical_trace_lines
    from repro.workloads.fabricsim import (
        FabricWorkload,
        simulate_fabric,
        simulate_fabric_sharded,
    )

    cfg = _merge(
        {
            "fabric": "fat-tree",
            "k": 90,
            "n_requests": 1_000_000,
            "duration_s": 4e-3,
            "shards": 4,
            "inline": False,
            "with_faults": True,
            "trace_out": "",
        },
        config,
    )
    duration = float(cfg["duration_s"])
    fault_specs = ()
    if cfg["with_faults"]:
        # Targets chosen to exist for every even k >= 4 (quick runs use
        # k=8), including links on the pod-aligned boundary cut so the
        # cross-shard invalidation path is always exercised.
        fault_specs = (
            FaultSpec(
                kind="link-flap",
                targets=(("agg0-0", "core0-0"), ("agg1-1", "core1-0")),
                mtbf_s=duration / 3.0,
                mttr_s=duration / 4.0,
                end_s=duration,
            ),
            FaultSpec(
                kind="switch-crash",
                targets=("agg2-0",),
                mtbf_s=duration / 2.0,
                mttr_s=duration / 3.0,
                end_s=duration,
            ),
        )
    workload = FabricWorkload(
        fabric=cfg["fabric"],
        k=cfg["k"],
        n_requests=cfg["n_requests"],
        duration_s=duration,
        seed=101_250 + seed,
        fault_specs=fault_specs,
    )
    shards = int(cfg["shards"])
    if shards == 1:
        run = simulate_fabric(workload)
    else:
        run = simulate_fabric_sharded(
            workload, shards, inline=bool(cfg["inline"])
        )
    if cfg["trace_out"]:
        out_path = Path(cfg["trace_out"])
        if out_path.parent != Path("."):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        with out_path.open("w") as handle:
            handle.writelines(canonical_trace_lines(run.records))
    metrics: Dict[str, Any] = dict(run.metrics)
    metrics["engine"] = run.diagnostics["engine"]
    metrics["switches"] = run.diagnostics["switches"]
    metrics["hosts"] = run.diagnostics["hosts"]
    for key in ("shards", "rounds", "boundary_events", "lookahead_us"):
        if key in run.diagnostics:
            metrics[key] = run.diagnostics[key]
    return _result("X14", seed, cfg, metrics)


def run_x15(config: Mapping[str, Any], seed: int) -> RunResult:
    """X15: the experiment service under millions-of-users traffic.

    Models the tentpole service's admission queue, coalescing and
    result cache in the DES engine at planetary request volume, with
    spine-uplink faults degrading the workers' fabric -- comparing the
    ``open``, ``bounded`` and ``fair`` admission policies on served
    P99 and shed rate (:func:`repro.workloads.service_exhibit`).
    """
    from repro.workloads.servicesim import service_exhibit

    cfg = _merge(
        {
            "n_requests": 50_000,
            "arrival_rate_hz": 2_000.0,
            "n_workers": 8,
            "queue_cap": 48,
            "per_client_cap": 4,
        },
        config,
    )
    metrics = service_exhibit(
        n_requests=cfg["n_requests"],
        seed=seed,
        overrides={
            "arrival_rate_hz": cfg["arrival_rate_hz"],
            "n_workers": cfg["n_workers"],
            "queue_cap": cfg["queue_cap"],
            "per_client_cap": cfg["per_client_cap"],
        },
    )
    return _result("X15", seed, cfg, metrics)


def run_x16(config: Mapping[str, Any], seed: int) -> RunResult:
    """X16: the self-chaos harness -- crash-safety on the real stack.

    In its default mode this runs the full kill schedule of
    :func:`repro.workloads.self_chaos_exhibit`: SIGKILL pool workers
    mid-shard, SIGKILL a real ``repro run`` subprocess mid-grid and
    resume it from the write-ahead journal, SIGKILL a real
    ``repro serve`` mid-job and recover it on restart -- reporting
    byte-identity and containment verdicts as metrics.

    With ``probe=True`` the entrypoint is instead the trivial
    deterministic shard the harness uses as its *inner* workload
    (:func:`repro.workloads.selfchaos.probe_metrics`), so X16 can drive
    itself through the registry without recursion.
    """
    from repro.workloads.selfchaos import (
        CHAOS_DEFAULTS,
        probe_metrics,
        self_chaos_exhibit,
    )

    cfg = _merge(
        {"probe": False, "sleep_s": 0.0, "crash_marker_dir": None,
         **CHAOS_DEFAULTS},
        config,
    )
    if cfg["probe"]:
        return _result("X16", seed, cfg, probe_metrics(cfg, seed))
    metrics = self_chaos_exhibit(
        seed=seed,
        overrides={key: cfg[key] for key in CHAOS_DEFAULTS},
    )
    return _result("X16", seed, cfg, metrics)


def run_x17(config: Mapping[str, Any], seed: int) -> RunResult:
    """X17: the chaos x load matrix -- X12's claims under real traffic.

    Re-measures the Catapult-style hedging tail recovery and the
    disaggregated-fabric availability gain under every
    :data:`repro.workloads.scenario.TRAFFIC_REGIMES` traffic shape
    (steady, diurnal, flash crowd, heavy tail), with each regime's
    arrival trace generated as a :mod:`repro.mc.traffic` batch draw and
    bulk-injected via ``Simulator.schedule_batch``
    (:func:`repro.workloads.chaos_load_exhibit`).
    """
    from repro.workloads.scenario import chaos_load_exhibit

    cfg = _merge(
        {
            "base_qps": 700.0,
            "search_horizon_s": 4.0,
            "base_read_hz": 400.0,
            "memory_horizon_s": 5.0,
        },
        config,
    )
    metrics = chaos_load_exhibit(
        base_qps=cfg["base_qps"],
        search_horizon_s=cfg["search_horizon_s"],
        base_read_hz=cfg["base_read_hz"],
        memory_horizon_s=cfg["memory_horizon_s"],
        seed=seed,
    )
    return _result("X17", seed, cfg, metrics)
