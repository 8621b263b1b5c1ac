"""Heterogeneous DAG schedulers: FIFO, greedy-EFT and HEFT.

The E10 experiment (R11: "creation of dynamic scheduling and resource
allocation strategies") compares:

- ``fifo``: heterogeneity-blind -- tasks in topological order onto the
  next free capable executor (round-robin), ignoring device speed;
- ``greedy_eft``: tasks in topological order, each placed on the
  executor giving the earliest finish time (dynamic allocation);
- ``heft``: the classic Heterogeneous-Earliest-Finish-Time list
  scheduler -- upward-rank priorities, then EFT placement with
  inter-host communication costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analytics.blocks import BlockRegistry, default_blocks
from repro.errors import SchedulingError
from repro.node.device import ComputeDevice
from repro.scheduler.task import Job, Task


@dataclass(frozen=True)
class Executor:
    """One schedulable device instance on a named host."""

    name: str
    host: str
    device: ComputeDevice


@dataclass
class Assignment:
    """Where and when one task ran."""

    task_id: str
    executor: Executor
    start_s: float
    finish_s: float


@dataclass
class Schedule:
    """A complete schedule for a job."""

    job: Job
    assignments: Dict[str, Assignment] = field(default_factory=dict)

    @property
    def makespan_s(self) -> float:
        """Finish time of the last task."""
        if not self.assignments:
            raise SchedulingError("empty schedule")
        return max(a.finish_s for a in self.assignments.values())

    def executor_busy_s(self) -> Dict[str, float]:
        """Total busy time per executor."""
        busy: Dict[str, float] = {}
        for assignment in self.assignments.values():
            name = assignment.executor.name
            busy[name] = busy.get(name, 0.0) + (
                assignment.finish_s - assignment.start_s
            )
        return busy

    def total_energy_j(self) -> float:
        """Active energy: each task's duration at its device's TDP."""
        return sum(
            (a.finish_s - a.start_s) * a.executor.device.tdp_w
            for a in self.assignments.values()
        )

    def validate(self) -> None:
        """Check precedence and executor-overlap invariants."""
        for task_id, task in self.job.tasks.items():
            if task_id not in self.assignments:
                raise SchedulingError(f"task {task_id} unscheduled")
            mine = self.assignments[task_id]
            for dep in task.deps:
                if self.assignments[dep].finish_s > mine.start_s + 1e-9:
                    raise SchedulingError(
                        f"task {task_id} starts before dep {dep} finishes"
                    )
        by_executor: Dict[str, List[Assignment]] = {}
        for assignment in self.assignments.values():
            by_executor.setdefault(assignment.executor.name, []).append(assignment)
        for name, assignments in by_executor.items():
            assignments.sort(key=lambda a: a.start_s)
            for first, second in zip(assignments, assignments[1:]):
                if first.finish_s > second.start_s + 1e-9:
                    raise SchedulingError(f"overlap on executor {name}")


def _task_time(
    task: Task, executor: Executor, blocks: BlockRegistry
) -> Optional[float]:
    block = blocks.get(task.block)
    if not block.runs_on(executor.device):
        return None
    return block.time_s(executor.device, task.n_records)


def _transfer_time(task: Task, src_host: str, dst_host: str,
                   link_gbps: float) -> float:
    if src_host == dst_host or task.output_bytes == 0:
        return 0.0
    return task.output_bytes * 8.0 / (link_gbps * 1e9)


class HeterogeneousScheduler:
    """Builds schedules for jobs on a fixed executor pool."""

    def __init__(
        self,
        executors: List[Executor],
        blocks: Optional[BlockRegistry] = None,
        link_gbps: float = 10.0,
    ) -> None:
        if not executors:
            raise SchedulingError("need at least one executor")
        if link_gbps <= 0:
            raise SchedulingError("link rate must be positive")
        self.executors = list(executors)
        self.blocks = blocks or default_blocks()
        self.link_gbps = link_gbps

    # -- shared placement machinery -----------------------------------------

    def _place(
        self,
        order: List[str],
        job: Job,
        consider_speed: bool,
    ) -> Schedule:
        schedule = Schedule(job)
        free_at: Dict[str, float] = {e.name: 0.0 for e in self.executors}
        round_robin = 0
        for task_id in order:
            task = job.tasks[task_id]
            candidates: List[Tuple[float, float, Executor]] = []
            for executor in self.executors:
                duration = _task_time(task, executor, self.blocks)
                if duration is None:
                    continue
                ready = 0.0
                for dep in task.deps:
                    dep_assignment = schedule.assignments[dep]
                    arrival = dep_assignment.finish_s + _transfer_time(
                        job.tasks[dep],
                        dep_assignment.executor.host,
                        executor.host,
                        self.link_gbps,
                    )
                    ready = max(ready, arrival)
                start = max(ready, free_at[executor.name])
                candidates.append((start + duration, start, executor))
            if not candidates:
                raise SchedulingError(
                    f"no executor can run task {task_id} ({task.block})"
                )
            if consider_speed:
                finish, start, executor = min(
                    candidates, key=lambda c: (c[0], c[2].name)
                )
            else:
                # FIFO: rotate through capable executors ignoring speed.
                capable = sorted(
                    {c[2].name: c for c in candidates}.values(),
                    key=lambda c: c[2].name,
                )
                finish, start, executor = capable[round_robin % len(capable)]
                round_robin += 1
            free_at[executor.name] = finish
            schedule.assignments[task_id] = Assignment(
                task_id, executor, start, finish
            )
        schedule.validate()
        return schedule

    # -- algorithms ------------------------------------------------------------

    def fifo(self, job: Job) -> Schedule:
        """Heterogeneity-blind round-robin placement."""
        job.validate()
        return self._place(job.topological_order(), job, consider_speed=False)

    def greedy_eft(self, job: Job) -> Schedule:
        """Topological order, earliest-finish-time placement."""
        job.validate()
        return self._place(job.topological_order(), job, consider_speed=True)

    def heft(self, job: Job) -> Schedule:
        """HEFT: upward-rank priority order, then EFT placement."""
        job.validate()
        ranks = self._upward_ranks(job)
        order = sorted(job.tasks, key=lambda tid: (-ranks[tid], tid))
        order = self._legalize(order, job)
        return self._place(order, job, consider_speed=True)

    def energy_aware(self, job: Job, slack: float = 1.5) -> Schedule:
        """Energy-bounded list scheduling (R4 meets R11).

        HEFT ordering, but each task picks the *lowest-energy* executor
        among those whose finish time stays within ``slack`` times the
        task's best achievable finish -- trading bounded makespan
        stretch for joules (the FPGA usually wins these ties).
        """
        if slack < 1.0:
            raise SchedulingError(f"slack must be >= 1, got {slack}")
        job.validate()
        ranks = self._upward_ranks(job)
        order = self._legalize(
            sorted(job.tasks, key=lambda tid: (-ranks[tid], tid)), job
        )
        schedule = Schedule(job)
        free_at: Dict[str, float] = {e.name: 0.0 for e in self.executors}
        for task_id in order:
            task = job.tasks[task_id]
            candidates: List[Tuple[float, float, float, Executor]] = []
            for executor in self.executors:
                duration = _task_time(task, executor, self.blocks)
                if duration is None:
                    continue
                ready = 0.0
                for dep in task.deps:
                    dep_assignment = schedule.assignments[dep]
                    ready = max(
                        ready,
                        dep_assignment.finish_s
                        + _transfer_time(
                            job.tasks[dep],
                            dep_assignment.executor.host,
                            executor.host,
                            self.link_gbps,
                        ),
                    )
                start = max(ready, free_at[executor.name])
                finish = start + duration
                energy = duration * executor.device.tdp_w
                candidates.append((finish, start, energy, executor))
            if not candidates:
                raise SchedulingError(
                    f"no executor can run task {task_id} ({task.block})"
                )
            best_finish = min(c[0] for c in candidates)
            eligible = [
                c for c in candidates if c[0] <= slack * best_finish + 1e-12
            ]
            finish, start, _energy, executor = min(
                eligible, key=lambda c: (c[2], c[0], c[3].name)
            )
            free_at[executor.name] = finish
            schedule.assignments[task_id] = Assignment(
                task_id, executor, start, finish
            )
        schedule.validate()
        return schedule

    def critical_path_order(self, job: Job) -> Schedule:
        """Ablation variant: order by static critical-path length instead
        of mean-based upward rank (same placement rule)."""
        job.validate()
        lengths = self._critical_path_lengths(job)
        order = sorted(job.tasks, key=lambda tid: (-lengths[tid], tid))
        order = self._legalize(order, job)
        return self._place(order, job, consider_speed=True)

    # -- ranking helpers ---------------------------------------------------------

    def _mean_time(self, task: Task) -> float:
        times = [
            t
            for t in (
                _task_time(task, e, self.blocks) for e in self.executors
            )
            if t is not None
        ]
        if not times:
            raise SchedulingError(f"task {task.task_id}: no capable executor")
        return sum(times) / len(times)

    def _mean_transfer(self, task: Task) -> float:
        # Average over same-host (free) and cross-host cases.
        hosts = {e.host for e in self.executors}
        if len(hosts) <= 1:
            return 0.0
        cross = _transfer_time(task, "a", "b", self.link_gbps)
        return cross * (len(hosts) - 1) / len(hosts)

    def _upward_ranks(self, job: Job) -> Dict[str, float]:
        successors = job.successors()
        ranks: Dict[str, float] = {}
        for task_id in reversed(job.topological_order()):
            task = job.tasks[task_id]
            succ_rank = max(
                (
                    self._mean_transfer(task) + ranks[s]
                    for s in successors[task_id]
                ),
                default=0.0,
            )
            ranks[task_id] = self._mean_time(task) + succ_rank
        return ranks

    def _critical_path_lengths(self, job: Job) -> Dict[str, float]:
        successors = job.successors()
        lengths: Dict[str, float] = {}
        for task_id in reversed(job.topological_order()):
            task = job.tasks[task_id]
            succ = max((lengths[s] for s in successors[task_id]), default=0.0)
            lengths[task_id] = self._mean_time(task) + succ
        return lengths

    @staticmethod
    def _legalize(order: List[str], job: Job) -> List[str]:
        """Stable-reorder a priority list into a valid topological order."""
        position = {tid: i for i, tid in enumerate(order)}
        placed: List[str] = []
        done = set()
        remaining = set(order)
        while remaining:
            best = min(
                (
                    tid
                    for tid in remaining
                    if all(d in done for d in job.tasks[tid].deps)
                ),
                key=lambda tid: position[tid],
            )
            placed.append(best)
            done.add(best)
            remaining.discard(best)
        return placed
