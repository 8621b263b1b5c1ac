"""Online job-stream scheduling: R11's *dynamic* resource allocation.

Recommendation 11 asks for "dynamic scheduling and resource allocation
strategies" for heterogeneous platforms. The offline schedulers compare
placement quality on one DAG; this module compares *allocation* policies
over a stream of arriving jobs:

- ``run_exclusive``: jobs served FIFO, each getting the whole pool
  (the coarse-grained cluster-per-job model);
- ``run_shared``: all ready tasks from all arrived jobs compete for
  executors under earliest-finish-time placement (work-conserving
  dynamic allocation).

Shared allocation wins on mean job completion time whenever jobs cannot
individually saturate the pool -- the quantitative case for R11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analytics.blocks import BlockRegistry, default_blocks
from repro.engine import Observability
from repro.errors import SchedulingError
from repro.scheduler.hetero import Executor, _task_time, _transfer_time
from repro.scheduler.task import Job


@dataclass(frozen=True)
class OnlineJob:
    """A job plus its arrival time."""

    arrival_s: float
    job: Job

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise SchedulingError("negative arrival time")


@dataclass(frozen=True)
class HostOutage:
    """One host-level outage window.

    While the window is open every executor on ``host`` is unavailable:
    a task that would start inside the window waits (no work lost), and
    a task already running when the window opens is killed and restarted
    from scratch once the host comes back -- the partial execution is
    counted as wasted work.
    """

    host: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise SchedulingError("negative outage start")
        if self.end_s <= self.start_s:
            raise SchedulingError("outage must end after it starts")


@dataclass
class OnlineOutcome:
    """Per-job completion accounting for one policy run."""

    completions: Dict[str, float]  # job name -> finish time
    arrivals: Dict[str, float]
    rescheduled: int = 0  # task executions killed by outages and redone
    wasted_s: float = 0.0  # executor-seconds of killed partial work

    @property
    def makespan_s(self) -> float:
        """Finish of the last job."""
        return max(self.completions.values())

    @property
    def mean_completion_time_s(self) -> float:
        """Mean of (finish - arrival) across jobs."""
        waits = [
            self.completions[name] - self.arrivals[name]
            for name in self.completions
        ]
        return sum(waits) / len(waits)


class OnlineScheduler:
    """Simulates job streams over a fixed executor pool.

    Inside an ambient :class:`~repro.engine.Observability` scope, job
    and task placements are recorded as ``scheduler.online`` spans,
    counters and completion-time histograms.
    """

    def __init__(
        self,
        executors: List[Executor],
        blocks: Optional[BlockRegistry] = None,
        link_gbps: float = 10.0,
    ) -> None:
        if not executors:
            raise SchedulingError("need at least one executor")
        self.executors = list(executors)
        self.blocks = blocks or default_blocks()
        self.link_gbps = link_gbps

    # -- policies -----------------------------------------------------------

    def run_exclusive(self, stream: List[OnlineJob]) -> OnlineOutcome:
        """FIFO whole-pool allocation: one job at a time."""
        ordered = self._validated(stream)
        observability = Observability.current()
        pool_free_at = 0.0
        completions: Dict[str, float] = {}
        for online in ordered:
            start = max(online.arrival_s, pool_free_at)
            job_finish = self._eft_makespan(online.job, base_time=start)
            completions[online.job.name] = job_finish
            pool_free_at = job_finish
            if observability is not None:
                observability.spans.record(
                    "exclusive.job",
                    start,
                    job_finish,
                    tags={
                        "subsystem": "scheduler.online",
                        "job": online.job.name,
                        "policy": "exclusive",
                    },
                )
        outcome = OnlineOutcome(
            completions=completions,
            arrivals={o.job.name: o.arrival_s for o in ordered},
        )
        self._record_outcome(outcome, policy="exclusive")
        return outcome

    def run_shared(
        self,
        stream: List[OnlineJob],
        outages: Optional[List[HostOutage]] = None,
    ) -> OnlineOutcome:
        """Dynamic work-conserving allocation across concurrent jobs.

        Tasks from all jobs are placed in global earliest-ready order
        with EFT, each constrained by its job's arrival time. With
        ``outages``, executors on a failed host are unavailable during
        each window: tasks caught mid-run are killed and restarted after
        the outage (EFT sees the post-outage finish time, so placement
        routes around down hosts when a surviving executor finishes
        sooner), and the outcome reports the kill count and wasted work.
        """
        ordered = self._validated(stream)
        observability = Observability.current()
        outage_windows = self._outage_windows(outages)
        rescheduled = 0
        wasted_s = 0.0
        free_at: Dict[str, float] = {e.name: 0.0 for e in self.executors}
        finish: Dict[Tuple[str, str], Tuple[float, Executor]] = {}
        completions: Dict[str, float] = {}
        # Interleave jobs' topological orders by arrival, then task order.
        work: List[Tuple[float, str, str]] = []
        for online in ordered:
            for task_id in online.job.topological_order():
                work.append((online.arrival_s, online.job.name, task_id))
        jobs = {o.job.name: o.job for o in ordered}
        arrivals = {o.job.name: o.arrival_s for o in ordered}

        for arrival, job_name, task_id in work:
            task = jobs[job_name].tasks[task_id]
            best: Optional[Tuple[float, float, Executor, int, float]] = None
            for executor in self.executors:
                duration = _task_time(task, executor, self.blocks)
                if duration is None:
                    continue
                ready = arrival
                for dep in task.deps:
                    dep_finish, dep_exec = finish[(job_name, dep)]
                    ready = max(
                        ready,
                        dep_finish
                        + _transfer_time(
                            jobs[job_name].tasks[dep],
                            dep_exec.host,
                            executor.host,
                            self.link_gbps,
                        ),
                    )
                start = max(ready, free_at[executor.name])
                kills, wasted = 0, 0.0
                windows = outage_windows.get(executor.name)
                if windows:
                    start, kills, wasted = _next_free_interval(
                        start, duration, windows
                    )
                candidate = (start + duration, start, executor, kills, wasted)
                if best is None or (candidate[0], candidate[2].name) < (
                    best[0], best[2].name
                ):
                    best = candidate
            if best is None:
                raise SchedulingError(
                    f"no executor can run {job_name}/{task_id}"
                )
            end, _start, executor, kills, wasted = best
            rescheduled += kills
            wasted_s += wasted
            free_at[executor.name] = end
            finish[(job_name, task_id)] = (end, executor)
            completions[job_name] = max(completions.get(job_name, 0.0), end)
            if observability is not None:
                observability.spans.record(
                    f"task.{task.block}",
                    _start,
                    end,
                    tags={
                        "subsystem": "scheduler.online",
                        "job": job_name,
                        "task": task_id,
                        "executor": executor.name,
                        "policy": "shared",
                    },
                )
                registry = observability.registry
                registry.counter("scheduler.tasks_placed").inc()
                registry.counter(f"scheduler.busy_s.{executor.name}").inc(
                    end - _start
                )
                if kills:
                    registry.counter("scheduler.tasks_rescheduled").inc(kills)
                    registry.counter("scheduler.wasted_s").inc(wasted)
        outcome = OnlineOutcome(
            completions=completions,
            arrivals=arrivals,
            rescheduled=rescheduled,
            wasted_s=wasted_s,
        )
        self._record_outcome(outcome, policy="shared")
        return outcome

    # -- helpers ---------------------------------------------------------------

    def _outage_windows(
        self, outages: Optional[List[HostOutage]]
    ) -> Dict[str, List[Tuple[float, float]]]:
        """Merged, sorted outage windows keyed by executor name."""
        if not outages:
            return {}
        by_host: Dict[str, List[Tuple[float, float]]] = {}
        for outage in outages:
            by_host.setdefault(outage.host, []).append(
                (outage.start_s, outage.end_s)
            )
        return {
            executor.name: _merge_windows(by_host[executor.host])
            for executor in self.executors
            if executor.host in by_host
        }

    def _record_outcome(self, outcome: OnlineOutcome, policy: str) -> None:
        """Publish per-job completion-time histograms for one policy run."""
        observability = Observability.current()
        if observability is None:
            return
        histogram = observability.registry.histogram(
            f"scheduler.completion_s.{policy}"
        )
        for name, finish_s in outcome.completions.items():
            histogram.observe(finish_s - outcome.arrivals[name])

    def _validated(self, stream: List[OnlineJob]) -> List[OnlineJob]:
        if not stream:
            raise SchedulingError("empty job stream")
        names = [o.job.name for o in stream]
        if len(set(names)) != len(names):
            raise SchedulingError("job names must be unique in a stream")
        for online in stream:
            online.job.validate()
        return sorted(stream, key=lambda o: (o.arrival_s, o.job.name))

    def _eft_makespan(self, job: Job, base_time: float) -> float:
        """EFT makespan of one job starting at ``base_time`` on an idle pool."""
        free_at: Dict[str, float] = {e.name: base_time for e in self.executors}
        finish: Dict[str, Tuple[float, Executor]] = {}
        for task_id in job.topological_order():
            task = job.tasks[task_id]
            best: Optional[Tuple[float, float, Executor]] = None
            for executor in self.executors:
                duration = _task_time(task, executor, self.blocks)
                if duration is None:
                    continue
                ready = base_time
                for dep in task.deps:
                    dep_finish, dep_exec = finish[dep]
                    ready = max(
                        ready,
                        dep_finish
                        + _transfer_time(
                            job.tasks[dep], dep_exec.host, executor.host,
                            self.link_gbps,
                        ),
                    )
                start = max(ready, free_at[executor.name])
                candidate = (start + duration, start, executor)
                if best is None or (candidate[0], candidate[2].name) < (
                    best[0], best[2].name
                ):
                    best = candidate
            if best is None:
                raise SchedulingError(f"no executor can run {task_id}")
            end, _start, executor = best
            free_at[executor.name] = end
            finish[task_id] = (end, executor)
        return max(end for end, _ in finish.values())


def _merge_windows(
    windows: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Sort and coalesce overlapping or touching (start, end) intervals."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def _next_free_interval(
    start: float,
    duration: float,
    windows: List[Tuple[float, float]],
) -> Tuple[float, int, float]:
    """Earliest start for an uninterrupted ``duration`` run given outages.

    ``windows`` must be sorted and disjoint (see :func:`_merge_windows`).
    Returns ``(start, kills, wasted_s)``: a start inside a window is
    deferred to the window's end for free (the executor was down, so the
    task never launched), while a window opening mid-run kills the task
    -- the partial run before the window counts as wasted work and the
    task restarts from scratch after the window.
    """
    kills = 0
    wasted = 0.0
    for window_start, window_end in windows:
        if window_end <= start:
            continue
        if window_start <= start:
            start = window_end
        elif start + duration > window_start:
            kills += 1
            wasted += window_start - start
            start = window_end
        else:
            break
    return start, kills, wasted


def poisson_job_stream(
    n_jobs: int,
    mean_interarrival_s: float,
    job_factory,
    seed: int = 17,
) -> List[OnlineJob]:
    """A Poisson stream of jobs built by ``job_factory(index)``."""
    from repro.engine.randomness import RandomStream

    if n_jobs < 1:
        raise SchedulingError("need at least one job")
    if mean_interarrival_s <= 0:
        raise SchedulingError("interarrival must be positive")
    rng = RandomStream(seed, "arrivals")
    stream = []
    t = 0.0
    for index in range(n_jobs):
        t += rng.exponential(mean_interarrival_s)
        stream.append(OnlineJob(arrival_s=t, job=job_factory(index)))
    return stream
