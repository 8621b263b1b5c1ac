"""Mini Big Data frameworks: batch (MapReduce/Spark-style) and streaming
(Flink-style) executors over simulated clusters, with accelerator offload.

Results are computed with real Python; time and energy are charged via
the roofline cost model and the fabric shuffle model.
"""

from repro.frameworks.batch import BatchExecutor, JobResult, StageReport
from repro.frameworks.dataflow import (
    NARROW_KINDS,
    Operator,
    Plan,
    WIDE_KINDS,
)
from repro.frameworks.dataset import PartitionedDataset
from repro.frameworks.faults import (
    FaultModel,
    StageOutcome,
    bsp_stage_time,
    speculation_benefit,
    task_time_with_faults,
)
from repro.frameworks.iterative import (
    IterativeReport,
    caching_speedup,
    run_iterative,
)
from repro.frameworks.offload import (
    OffloadPolicy,
    cpu_only,
    greedy_energy,
    greedy_time,
)
from repro.frameworks.query import (
    Aggregation,
    Predicate,
    Query,
    run_query,
)
from repro.frameworks.shuffle import (
    ShuffleSpec,
    shuffle_time_s,
)
from repro.frameworks.streaming import (
    StreamRecord,
    StreamingExecutor,
    StreamingJobReport,
    TumblingWindow,
    WindowResult,
)

__all__ = [
    "Aggregation",
    "BatchExecutor",
    "FaultModel",
    "IterativeReport",
    "JobResult",
    "NARROW_KINDS",
    "OffloadPolicy",
    "Operator",
    "PartitionedDataset",
    "Plan",
    "Predicate",
    "Query",
    "ShuffleSpec",
    "StageOutcome",
    "StageReport",
    "StreamRecord",
    "StreamingExecutor",
    "StreamingJobReport",
    "TumblingWindow",
    "WIDE_KINDS",
    "WindowResult",
    "bsp_stage_time",
    "caching_speedup",
    "cpu_only",
    "greedy_energy",
    "greedy_time",
    "run_iterative",
    "run_query",
    "shuffle_time_s",
    "speculation_benefit",
    "task_time_with_faults",
]
