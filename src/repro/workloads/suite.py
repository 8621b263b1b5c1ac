"""The standard benchmark suite (Recommendation 9).

R9: "It is difficult for Industry to assess the benefits of using novel
hardware. We propose establishing benchmarks to compare current and novel
architectures using Big Data applications." This module *is* that
proposal: a fixed set of Big Data workloads, each defined as a dataflow
plan plus a seeded dataset, runnable unchanged on any simulated cluster
so architectures can be compared side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.analytics import kmeans, tokenize
from repro.cluster.machine import Cluster
from repro.errors import ModelError
from repro.frameworks import (
    BatchExecutor,
    OffloadPolicy,
    PartitionedDataset,
    Plan,
    cpu_only,
)
from repro.workloads.generator import (
    gaussian_blobs,
    sales_table,
    web_graph,
    zipf_documents,
)


@dataclass
class BenchmarkDefinition:
    """One suite entry.

    Batch entries supply a dataset factory and a plan factory; entries
    with their own execution model (streaming) supply ``runner`` instead:
    ``runner(cluster, policy, scale) -> (sim_time_s, energy_j, n_out)``.
    """

    name: str
    description: str
    make_dataset: Optional[Callable[[int], PartitionedDataset]] = None
    make_plan: Optional[Callable[[], Plan]] = None
    runner: Optional[Callable] = None

    def __post_init__(self) -> None:
        batch_style = self.make_dataset is not None and self.make_plan is not None
        if batch_style == (self.runner is not None):
            raise ModelError(
                f"benchmark {self.name}: provide dataset+plan or a runner, "
                "not both / neither"
            )


@dataclass
class BenchmarkScore:
    """One (benchmark, architecture) measurement."""

    benchmark: str
    architecture: str
    sim_time_s: float
    energy_j: float
    n_output_records: int

    @property
    def records_per_joule(self) -> float:
        """Energy efficiency of the run."""
        if self.energy_j <= 0:
            return float("inf")
        return self.n_output_records / self.energy_j


def _wordcount_dataset(scale: int) -> PartitionedDataset:
    docs = zipf_documents(200 * scale, 40, seed=9)
    return PartitionedDataset.from_records(docs, 8, record_bytes=240)


def _wordcount_plan() -> Plan:
    return (
        Plan.source()
        .flat_map(tokenize, block="regex-extract", label="tokenize")
        .map(lambda w: (w, 1), block="filter-scan", label="pair")
        .reduce_by_key(
            lambda kv: kv[0],
            lambda a, b: (a[0], a[1] + b[1]),
            label="count",
        )
    )


def _sort_dataset(scale: int) -> PartitionedDataset:
    rows = sales_table(2_000 * scale, seed=11)
    return PartitionedDataset.from_records(rows, 8, record_bytes=120)


def _sort_plan() -> Plan:
    return Plan.source().sort_by(lambda r: (-r["amount"], r["order_id"]),
                                 label="terasort")


def _query_dataset(scale: int) -> PartitionedDataset:
    rows = sales_table(2_000 * scale, seed=13)
    return PartitionedDataset.from_records(rows, 8, record_bytes=120)


def _query_plan() -> Plan:
    return (
        Plan.source()
        .filter(lambda r: r["region"] == "EU", block="filter-scan",
                label="where-eu")
        .map(lambda r: (r["sector"], r["amount"]), block="filter-scan",
             label="project")
        .reduce_by_key(
            lambda kv: kv[0],
            lambda a, b: (a[0], a[1] + b[1]),
            label="sum-by-sector",
        )
    )


def _kmeans_dataset(scale: int) -> PartitionedDataset:
    points, _ = gaussian_blobs(500 * scale, seed=17)
    return PartitionedDataset.from_records(
        [tuple(p) for p in points], 8, record_bytes=64
    )


def _kmeans_plan() -> Plan:
    import numpy as np

    def cluster_partition(kv):
        # One Lloyd iteration per partition batch (the heavy kernel).
        key, records = kv
        arr = np.asarray([point for _, point in records])
        result = kmeans(arr, k=min(5, len(arr)), max_iterations=5, seed=0)
        return (key, result.inertia)

    return (
        Plan.source()
        .map(lambda p: (hash(p) % 8, p), block="feature-extract",
             label="featurize")
        .group_by_key(lambda kv: kv[0], label="partition")
        .map(cluster_partition, block="dense-gemm", label="lloyd")
    )


def _pagerank_dataset(scale: int) -> PartitionedDataset:
    graph = web_graph(300 * scale, seed=19)
    edges = [(src, dst) for src, dsts in graph.items() for dst in dsts]
    return PartitionedDataset.from_records(edges, 8, record_bytes=32)


def _pagerank_plan() -> Plan:
    return (
        Plan.source()
        .map(lambda e: (e[0], e[1]), block="filter-scan", label="parse")
        .group_by_key(lambda kv: kv[0], label="adjacency")
        .map(lambda kv: (kv[0], len(kv[1])), block="hash-aggregate",
             label="degree")
    )


def _streaming_runner(cluster: Cluster, policy, scale: int):
    """Windowed sensor aggregation on the best streaming device.

    Device choice follows the offload policy's spirit: cpu_only pins the
    host CPU; other policies pick the fastest capable device on the
    first server (streaming engines pin operators to devices).
    """
    from repro.analytics.blocks import default_blocks
    from repro.frameworks.offload import OffloadPolicy
    from repro.frameworks.streaming import (
        StreamRecord,
        StreamingExecutor,
        TumblingWindow,
    )
    from repro.workloads.generator import sensor_readings

    readings = sensor_readings(2_000 * scale, seed=29)
    records = [
        StreamRecord(r["time_s"], r["sensor"], r["value"]) for r in readings
    ]
    server = cluster.server_at(cluster.hosts[0])
    block = default_blocks().get("hash-aggregate")
    device = policy.choose(block, server, len(records))
    executor = StreamingExecutor(
        device,
        TumblingWindow(1.0),
        aggregate_fn=lambda values: sum(values) / len(values),
    )
    report = executor.run(records)
    return report.sim_time_s, report.energy_j, len(report.results)


def standard_suite() -> List[BenchmarkDefinition]:
    """The six-workload R9 suite (five batch + one streaming)."""
    return [
        BenchmarkDefinition(
            "wordcount", "Zipf text tokenize + count", _wordcount_dataset,
            _wordcount_plan,
        ),
        BenchmarkDefinition(
            "terasort", "global sort of sales records", _sort_dataset,
            _sort_plan,
        ),
        BenchmarkDefinition(
            "sql-query", "filter/project/aggregate relational query",
            _query_dataset, _query_plan,
        ),
        BenchmarkDefinition(
            "kmeans", "feature extraction + clustering", _kmeans_dataset,
            _kmeans_plan,
        ),
        BenchmarkDefinition(
            "pagerank-prep", "edge list to ranked adjacency",
            _pagerank_dataset, _pagerank_plan,
        ),
        BenchmarkDefinition(
            "stream-windows", "tumbling-window sensor aggregation",
            runner=_streaming_runner,
        ),
    ]


def run_suite(
    cluster: Cluster,
    architecture_name: str,
    policy: Optional[OffloadPolicy] = None,
    scale: int = 1,
    benchmarks: Optional[List[BenchmarkDefinition]] = None,
) -> List[BenchmarkScore]:
    """Run every suite benchmark on ``cluster``; returns one score each."""
    if scale < 1:
        raise ModelError(f"scale must be >= 1, got {scale}")
    policy = policy or cpu_only()
    executor = BatchExecutor(cluster, policy=policy)
    scores = []
    for definition in benchmarks or standard_suite():
        if definition.runner is not None:
            sim_time, energy, n_out = definition.runner(
                cluster, policy, scale
            )
        else:
            dataset = definition.make_dataset(scale)
            result = executor.run(definition.make_plan(), dataset)
            sim_time = result.sim_time_s
            energy = result.energy_j
            n_out = result.n_output_records
        scores.append(
            BenchmarkScore(
                benchmark=definition.name,
                architecture=architecture_name,
                sim_time_s=sim_time,
                energy_j=energy,
                n_output_records=n_out,
            )
        )
    return scores


def compare_architectures(
    configurations: Dict[str, tuple],
    scale: int = 1,
) -> Dict[str, List[BenchmarkScore]]:
    """Side-by-side suite runs: name -> (cluster, policy).

    Each batch dataset is built once and run on every architecture; no
    suite operator mutates its input records, so sharing is safe.
    """
    if not configurations:
        raise ModelError("need at least one architecture")
    if scale < 1:
        raise ModelError(f"scale must be >= 1, got {scale}")
    benchmarks = []
    for definition in standard_suite():
        if definition.make_dataset is not None:
            dataset = definition.make_dataset(scale)
            definition = replace(
                definition, make_dataset=lambda _scale, built=dataset: built
            )
        benchmarks.append(definition)
    return {
        name: run_suite(
            cluster, name, policy=policy, scale=scale, benchmarks=benchmarks
        )
        for name, (cluster, policy) in configurations.items()
    }
