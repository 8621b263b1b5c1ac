"""Workload generators and the benchmark suite (Recommendation 9).

Seeded synthetic data (Zipf text, relational tables, sensor/science
streams, web graphs), the five-workload standard suite,
the Catapult-style search service (E2), the HPC/Big Data convergence
trigger pipeline (E14), the experiment-service admission model under
planetary traffic (X15), the self-chaos crash-recovery harness that
SIGKILLs the reproduction stack itself (X16) and the chaos x load
matrix re-measuring the resilience claims under scenario-generated
traffic (X17).
"""

from repro.workloads.chaos import (
    chaos_exhibit,
    latency_summary,
    memory_inputs,
    run_memory_chaos,
    run_scheduler_chaos,
    run_search_chaos,
    search_inputs,
)
from repro.workloads.edge import (
    EdgeScenario,
    PlacementReport,
    WanLink,
    best_placement,
    evaluate_placements,
)
from repro.workloads.fabricsim import (
    FabricRunResult,
    FabricWorkload,
    simulate_fabric,
    simulate_fabric_sharded,
)
from repro.workloads.generator import (
    gaussian_blobs,
    sales_table,
    science_events,
    sensor_readings,
    web_graph,
    zipf_documents,
)
from repro.workloads.scenario import (
    TRAFFIC_REGIMES,
    chaos_load_exhibit,
    regime_spec,
)
from repro.workloads.search import (
    SearchRunResult,
    SearchServiceConfig,
    max_qps_within_sla,
    run_search_service,
    tail_latency_reduction,
)
from repro.workloads.selfchaos import (
    CHAOS_DEFAULTS,
    probe_metrics,
    self_chaos_exhibit,
)
from repro.workloads.servicesim import (
    ADMISSION_POLICIES,
    run_service_traffic,
    service_exhibit,
)
from repro.workloads.streams import (
    TriggerReport,
    convergence_comparison,
    run_trigger_pipeline,
)
from repro.workloads.suite import (
    BenchmarkDefinition,
    BenchmarkScore,
    compare_architectures,
    run_suite,
    standard_suite,
)

__all__ = [
    "ADMISSION_POLICIES",
    "BenchmarkDefinition",
    "BenchmarkScore",
    "CHAOS_DEFAULTS",
    "EdgeScenario",
    "FabricRunResult",
    "FabricWorkload",
    "PlacementReport",
    "SearchRunResult",
    "SearchServiceConfig",
    "TRAFFIC_REGIMES",
    "TriggerReport",
    "WanLink",
    "best_placement",
    "chaos_exhibit",
    "chaos_load_exhibit",
    "compare_architectures",
    "convergence_comparison",
    "evaluate_placements",
    "gaussian_blobs",
    "latency_summary",
    "max_qps_within_sla",
    "memory_inputs",
    "probe_metrics",
    "regime_spec",
    "run_memory_chaos",
    "run_scheduler_chaos",
    "run_search_chaos",
    "run_search_service",
    "run_service_traffic",
    "run_suite",
    "run_trigger_pipeline",
    "sales_table",
    "science_events",
    "search_inputs",
    "self_chaos_exhibit",
    "sensor_readings",
    "service_exhibit",
    "simulate_fabric",
    "simulate_fabric_sharded",
    "standard_suite",
    "tail_latency_reduction",
    "web_graph",
    "zipf_documents",
]
