"""Batch dataflow executor: real results, simulated cost.

The executor runs a :class:`~repro.frameworks.dataflow.Plan` over a
:class:`~repro.frameworks.dataset.PartitionedDataset` on a simulated
:class:`~repro.cluster.machine.Cluster`. The *records* are computed with
plain Python (the results are real); the *time and energy* are charged by
the roofline cost of each operator's building block on the device the
offload policy selects, plus shuffle time from the fabric model -- a BSP
(bulk-synchronous) execution where each stage takes as long as its
slowest host. Inside an ambient :class:`~repro.engine.Observability`
scope each run records its stages' compute and shuffle phases as
back-to-back spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analytics.blocks import BlockRegistry, default_blocks
from repro.cluster.machine import Cluster
from repro.engine import Observability
from repro.errors import PlanError
from repro.frameworks.dataflow import Operator, Plan
from repro.frameworks.dataset import PartitionedDataset
from repro.frameworks.offload import OffloadPolicy, cpu_only
from repro.frameworks.shuffle import ShuffleSpec, shuffle_time_s


@dataclass
class StageReport:
    """Timing of one BSP stage."""

    stage_index: int
    operator_labels: List[str] = field(default_factory=list)
    compute_time_s: float = 0.0
    shuffle_time_s: float = 0.0
    device_busy_s: Dict[str, float] = field(default_factory=dict)

    @property
    def total_time_s(self) -> float:
        """Stage wall-clock: compute then shuffle."""
        return self.compute_time_s + self.shuffle_time_s


@dataclass
class JobResult:
    """Outcome of one batch job."""

    records: List[Any]
    stages: List[StageReport]
    energy_j: float

    @property
    def sim_time_s(self) -> float:
        """End-to-end simulated wall-clock."""
        return sum(stage.total_time_s for stage in self.stages)

    @property
    def n_output_records(self) -> int:
        """Size of the final result."""
        return len(self.records)


class BatchExecutor:
    """Executes plans on a cluster under an offload policy."""

    def __init__(
        self,
        cluster: Cluster,
        blocks: Optional[BlockRegistry] = None,
        policy: Optional[OffloadPolicy] = None,
    ) -> None:
        if cluster.n_servers == 0:
            raise PlanError("cluster has no servers")
        self.cluster = cluster
        self.blocks = blocks or default_blocks()
        self.policy = policy or cpu_only()

    # -- cost charging -------------------------------------------------------

    def _host_of_partition(self, index: int) -> str:
        hosts = self.cluster.hosts
        return hosts[index % len(hosts)]

    def _charge_operator(
        self,
        operator: Operator,
        dataset: PartitionedDataset,
        stage: StageReport,
    ) -> float:
        """Add the operator's compute cost to ``stage``; returns energy."""
        block = self.blocks.get(operator.block)
        per_host_records: Dict[str, int] = {}
        for index, partition in enumerate(dataset.partitions):
            if not partition:
                continue
            host = self._host_of_partition(index)
            per_host_records[host] = per_host_records.get(host, 0) + len(partition)
        if not per_host_records:
            return 0.0
        slowest = 0.0
        energy = 0.0
        for host, n_records in per_host_records.items():
            server = self.cluster.server_at(host)
            device = self.policy.choose(block, server, n_records)
            elapsed = block.time_s(device, n_records)
            slowest = max(slowest, elapsed)
            energy += elapsed * device.tdp_w
            key = f"{host}:{device.name}"
            stage.device_busy_s[key] = stage.device_busy_s.get(key, 0.0) + elapsed
        stage.compute_time_s += slowest
        stage.operator_labels.append(operator.label or operator.kind)
        return energy

    def _charge_shuffle(
        self, dataset: PartitionedDataset, stage: StageReport
    ) -> None:
        n_hosts = len(self.cluster.hosts)
        nic_gbps = min(
            self.cluster.server_at(h).nic.rate_gbps for h in self.cluster.hosts
        )
        spec = ShuffleSpec(dataset.total_bytes, n_hosts, nic_gbps)
        bisection = (
            self.cluster.fabric.bisection_bandwidth_gbps()
            if n_hosts > 1
            else None
        )
        stage.shuffle_time_s += shuffle_time_s(spec, bisection_gbps=bisection)

    # -- functional application ---------------------------------------------

    @staticmethod
    def _apply_narrow(
        operator: Operator, dataset: PartitionedDataset
    ) -> PartitionedDataset:
        if operator.kind == "map":
            return dataset.map_partitions(
                lambda part: [operator.fn(r) for r in part]
            )
        if operator.kind == "filter":
            return dataset.map_partitions(
                lambda part: [r for r in part if operator.fn(r)]
            )
        if operator.kind in ("flat_map", "broadcast_join"):
            # broadcast_join's fn already emits the joined pair list.
            return dataset.map_partitions(
                lambda part: [x for r in part for x in operator.fn(r)]
            )
        raise PlanError(f"not a narrow operator: {operator.kind}")

    @staticmethod
    def _apply_wide(
        operator: Operator, dataset: PartitionedDataset
    ) -> PartitionedDataset:
        n = dataset.n_partitions
        if operator.kind == "reduce_by_key":
            shuffled = dataset.repartition_by_key(operator.key_fn, n)

            def reduce_partition(partition: List[Any]) -> List[Any]:
                acc: Dict[Any, Any] = {}
                for record in partition:
                    key = operator.key_fn(record)
                    acc[key] = (
                        operator.fn(acc[key], record) if key in acc else record
                    )
                return sorted(acc.items(), key=lambda kv: repr(kv[0]))

            return shuffled.map_partitions(reduce_partition)
        if operator.kind == "group_by_key":
            shuffled = dataset.repartition_by_key(operator.key_fn, n)

            def group_partition(partition: List[Any]) -> List[Any]:
                groups: Dict[Any, List[Any]] = {}
                for record in partition:
                    groups.setdefault(operator.key_fn(record), []).append(record)
                return sorted(groups.items(), key=lambda kv: repr(kv[0]))

            return shuffled.map_partitions(group_partition)
        if operator.kind == "sort_by":
            # Range-partitioned global sort: gather keys, sort, re-split.
            everything = sorted(dataset.collect(), key=operator.key_fn)
            size = max(1, -(-len(everything) // n))
            parts = [
                everything[i * size : (i + 1) * size] for i in range(n)
            ]
            parts = [p for p in parts if p] or [[]]
            return PartitionedDataset(parts, record_bytes=dataset.record_bytes)
        raise PlanError(f"not a wide operator: {operator.kind}")

    # -- driver ----------------------------------------------------------------

    def run(self, plan: Plan, dataset: PartitionedDataset) -> JobResult:
        """Execute ``plan`` over ``dataset``; returns records + cost report."""
        plan.validate()
        stages: List[StageReport] = [StageReport(stage_index=0)]
        energy = 0.0
        current = dataset
        for operator in plan.operators:
            if operator.is_wide:
                # The shuffle write happens at the end of the open stage...
                self._charge_shuffle(current, stages[-1])
                stages.append(StageReport(stage_index=len(stages)))
                # ...and the wide operator's compute lands in the new stage.
                energy += self._charge_operator(operator, current, stages[-1])
                current = self._apply_wide(operator, current)
            else:
                energy += self._charge_operator(operator, current, stages[-1])
                current = self._apply_narrow(operator, current)
        observability = Observability.current()
        if observability is not None:
            clock = observability.now
            for stage in stages:
                tags = {
                    "subsystem": "frameworks.batch",
                    "policy": self.policy.name,
                    "operators": "+".join(stage.operator_labels),
                }
                observability.spans.record(
                    f"stage{stage.stage_index}.compute",
                    clock, clock + stage.compute_time_s, tags=tags,
                )
                clock += stage.compute_time_s
                if stage.shuffle_time_s > 0:
                    observability.spans.record(
                        f"stage{stage.stage_index}.shuffle",
                        clock, clock + stage.shuffle_time_s, tags=tags,
                    )
                    clock += stage.shuffle_time_s
        return JobResult(records=current.collect(), stages=stages, energy_j=energy)
