"""Heterogeneous task scheduling (Recommendation 11)."""

from repro.scheduler.hetero import (
    Assignment,
    Executor,
    HeterogeneousScheduler,
    Schedule,
)
from repro.scheduler.online import (
    HostOutage,
    OnlineJob,
    OnlineOutcome,
    OnlineScheduler,
    poisson_job_stream,
)
from repro.scheduler.task import Job, Task, chain_job, fork_join_job

__all__ = [
    "Assignment",
    "Executor",
    "HeterogeneousScheduler",
    "HostOutage",
    "Job",
    "OnlineJob",
    "OnlineOutcome",
    "OnlineScheduler",
    "Schedule",
    "Task",
    "chain_job",
    "fork_join_job",
    "poisson_job_stream",
]
