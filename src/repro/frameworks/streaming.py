"""Streaming dataflow executor (the Flink-style half of §IV.C).

Processes timestamped records through event-time tumbling windows
with watermark-based lateness handling, and charges simulated
per-record processing cost the same way the batch executor does -- giving
the sustained-throughput numbers the convergence experiment (E14, R2)
reports for LHC/SKA-like science streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analytics.blocks import BlockRegistry, default_blocks
from repro.errors import PlanError
from repro.node.device import ComputeDevice


@dataclass(frozen=True)
class StreamRecord:
    """One event: event time, key, value."""

    event_time_s: float
    key: Any
    value: Any

    def __post_init__(self) -> None:
        if self.event_time_s < 0:
            raise PlanError("negative event time")


@dataclass(frozen=True)
class WindowResult:
    """The aggregate of one (key, window) pair."""

    key: Any
    window_start_s: float
    window_end_s: float
    value: Any
    n_records: int


@dataclass
class TumblingWindow:
    """Fixed, non-overlapping event-time windows."""

    width_s: float

    def __post_init__(self) -> None:
        if self.width_s <= 0:
            raise PlanError("window width must be positive")

    def assign(self, event_time_s: float) -> List[Tuple[float, float]]:
        """Window(s) an event belongs to."""
        start = (event_time_s // self.width_s) * self.width_s
        return [(start, start + self.width_s)]


@dataclass
class StreamingJobReport:
    """Results plus cost accounting for one streaming run."""

    results: List[WindowResult]
    n_records_processed: int
    n_late_dropped: int
    sim_time_s: float
    energy_j: float

    @property
    def throughput_records_per_s(self) -> float:
        """Sustained simulated processing rate."""
        if self.sim_time_s <= 0:
            return float("inf")
        return self.n_records_processed / self.sim_time_s


class StreamingExecutor:
    """Windowed aggregation over a record stream on one device.

    ``aggregate_fn(values) -> value`` runs once per closed window;
    per-record ingest cost is charged via ``block`` on ``device``.
    """

    def __init__(
        self,
        device: ComputeDevice,
        window,
        aggregate_fn: Callable[[List[Any]], Any],
        allowed_lateness_s: float = 0.0,
        block: str = "hash-aggregate",
        blocks: Optional[BlockRegistry] = None,
    ) -> None:
        if allowed_lateness_s < 0:
            raise PlanError("lateness cannot be negative")
        self.device = device
        self.window = window
        self.aggregate_fn = aggregate_fn
        self.allowed_lateness_s = allowed_lateness_s
        self.block = (blocks or default_blocks()).get(block)

    def run(self, records: List[StreamRecord]) -> StreamingJobReport:
        """Process ``records`` (any arrival order); returns closed windows.

        The watermark advances to ``max(event_time seen) - lateness``;
        records older than the watermark are dropped as late. At end of
        stream every open window closes.
        """
        open_windows: Dict[Tuple[Any, float, float], List[Any]] = {}
        results: List[WindowResult] = []
        watermark = float("-inf")
        processed = 0
        dropped = 0

        for record in records:
            watermark = max(watermark, record.event_time_s - self.allowed_lateness_s)
            if record.event_time_s < watermark:
                dropped += 1
                continue
            processed += 1
            for start, end in self.window.assign(record.event_time_s):
                open_windows.setdefault((record.key, start, end), []).append(
                    record.value
                )

        for (key, start, end), values in sorted(
            open_windows.items(), key=lambda kv: (kv[0][1], repr(kv[0][0]))
        ):
            results.append(
                WindowResult(
                    key=key,
                    window_start_s=start,
                    window_end_s=end,
                    value=self.aggregate_fn(values),
                    n_records=len(values),
                )
            )

        if processed:
            sim_time = self.block.time_s(self.device, processed)
        else:
            sim_time = 0.0
        energy = sim_time * self.device.tdp_w
        return StreamingJobReport(
            results=results,
            n_records_processed=processed,
            n_late_dropped=dropped,
            sim_time_s=sim_time,
            energy_j=energy,
        )
