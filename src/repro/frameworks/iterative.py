"""Iterative execution with dataset caching (the Spark persist model).

§IV.C names Spark among MapReduce's successors; its defining advantage
over plain MapReduce is caching intermediate datasets across the
iterations of ML algorithms. This module models both modes:

- ``cache=True``: the preprocessing lineage runs once; each iteration
  pays only its own step (requires the intermediate to fit in memory);
- ``cache=False``: every iteration replays the full lineage (the
  MapReduce-era behaviour).

The cached/uncached gap grows linearly with iteration count -- the
crossover every iterative-analytics benchmark exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.errors import PlanError
from repro.frameworks.batch import BatchExecutor
from repro.frameworks.dataflow import Plan
from repro.frameworks.dataset import PartitionedDataset


@dataclass
class IterativeReport:
    """Cost accounting for one iterative run."""

    final_records: List
    base_time_s: float
    iteration_times_s: List[float]
    cached: bool

    @property
    def total_time_s(self) -> float:
        """End-to-end simulated time.

        Cached: base once plus the steps. Uncached: the base lineage
        replays inside every iteration.
        """
        if self.cached:
            return self.base_time_s + sum(self.iteration_times_s)
        return sum(
            self.base_time_s + step for step in self.iteration_times_s
        )


def run_iterative(
    executor: BatchExecutor,
    base_plan: Plan,
    step_plan_factory: Callable[[int], Plan],
    dataset: PartitionedDataset,
    n_iterations: int,
    cache: bool = True,
) -> IterativeReport:
    """Run ``base_plan`` then ``n_iterations`` of derived step plans.

    Each step plan is applied to the *base result* (not chained through
    previous steps -- the k-means/PageRank pattern where iterations
    re-scan the same input with updated parameters).
    """
    if n_iterations < 1:
        raise PlanError("need at least one iteration")
    base_result = executor.run(base_plan, dataset)
    intermediate = PartitionedDataset.from_records(
        base_result.records,
        dataset.n_partitions,
        record_bytes=dataset.record_bytes,
    )
    iteration_times = []
    final_records: List = []
    for index in range(n_iterations):
        step_plan = step_plan_factory(index)
        step_result = executor.run(step_plan, intermediate)
        iteration_times.append(step_result.sim_time_s)
        final_records = step_result.records
    return IterativeReport(
        final_records=final_records,
        base_time_s=base_result.sim_time_s,
        iteration_times_s=iteration_times,
        cached=cache,
    )


def caching_speedup(
    executor: BatchExecutor,
    base_plan: Plan,
    step_plan_factory: Callable[[int], Plan],
    dataset: PartitionedDataset,
    n_iterations: int,
) -> dict:
    """Cached vs uncached total time for the same iterative job."""
    cached = run_iterative(
        executor, base_plan, step_plan_factory, dataset, n_iterations,
        cache=True,
    )
    uncached = run_iterative(
        executor, base_plan, step_plan_factory, dataset, n_iterations,
        cache=False,
    )
    return {
        "cached_s": cached.total_time_s,
        "uncached_s": uncached.total_time_s,
        "speedup": uncached.total_time_s / cached.total_time_s,
        "n_iterations": n_iterations,
    }
