"""rethinkbig reproduction library.

Operationalizes the RETHINK big roadmap (DATE 2017): discrete-event and
analytical simulators for data-center networks and heterogeneous compute
nodes, a mini Big Data dataflow engine, economic (TCO/ROI/NRE) models, a
synthetic stakeholder-survey pipeline, and the roadmap/recommendation
engine that ties them together.

The headline entry points are re-exported here, so
``import repro; repro.run_experiment("E2")`` works without spelunking
submodules:

- :func:`run_experiment` / :func:`run_grid` -- execute registered
  experiments (one inline, or a parallel cached sweep) to
  :class:`RunResult` records; from :mod:`repro.runner`.
- :class:`JobSpec` / :class:`SubmitRequest` / :class:`JobResult` and
  :func:`execute_job` -- the versioned job contract and the one
  execution path behind library, CLI and service submissions; from
  :mod:`repro.service` and :mod:`repro.runner`.
- :class:`ServiceClient` -- HTTP/WebSocket client for a running
  ``python -m repro serve`` instance; from :mod:`repro.client`.
- :data:`EXPERIMENTS` / :func:`get_experiment` -- the experiment
  registry; from :mod:`repro.reporting`.
- :func:`run_trace` -- one instrumented experiment run;
  from :mod:`repro.reporting`.
- :class:`Simulator` / :class:`Observability` -- the deterministic DES
  kernel and its metrics/span substrate; from :mod:`repro.engine`.
- :func:`partition_fabric` / :class:`ShardedSimulation` and
  :func:`simulate_fabric` / :func:`simulate_fabric_sharded` -- the
  sharded conservative-time engine and its reference fabric workload;
  from :mod:`repro.engine` and :mod:`repro.workloads`.
- :class:`FaultInjector` / :class:`FaultSpec` and :func:`with_deadline`
  -- runtime fault injection and the deadline primitive; from
  :mod:`repro.engine`, which also holds the event-chain retry and hedge
  (``retry_events``, ``hedge_events``).
- :func:`build_roadmap` -- the full roadmap pipeline;
  from :mod:`repro.core`.
- :func:`generate_corpus` -- the calibrated 89-interview survey corpus;
  from :mod:`repro.survey`.

The full surface lives in the subpackages:

- :mod:`repro.engine` -- deterministic discrete-event simulation kernel.
- :mod:`repro.econ` -- TCO, ROI, NRE, silicon cost models.
- :mod:`repro.network` -- data-center fabric, SDN, NFV simulators.
- :mod:`repro.node` -- heterogeneous device and server models.
- :mod:`repro.cluster` -- converged and disaggregated clusters.
- :mod:`repro.frameworks` -- batch and streaming dataflow engines.
- :mod:`repro.scheduler` -- heterogeneous task scheduling.
- :mod:`repro.analytics` -- accelerated building blocks.
- :mod:`repro.workloads` -- data generators and the benchmark suite.
- :mod:`repro.survey` -- stakeholder interview corpus and analysis.
- :mod:`repro.core` -- technology catalog, adoption forecasts,
  recommendations and portfolio prioritization.
- :mod:`repro.mc` -- vectorized Monte-Carlo batch kernels for the
  analytical models (pinned against :mod:`repro._modelref`).
- :mod:`repro.ecosystem` -- actor/initiative graph and market analysis.
- :mod:`repro.reporting` -- tables, the experiment registry, trace runs.
- :mod:`repro.runner` -- the parallel experiment runner with caching.
- :mod:`repro.service` -- the async job service and its wire schema.
"""

__version__ = "2.0.0"

from repro import mc
from repro.client import ServiceClient
from repro.core import build_roadmap
from repro.engine import (
    FaultInjector,
    FaultSpec,
    Observability,
    RandomStream,
    RetryPolicy,
    ShardedSimulation,
    Simulator,
    partition_fabric,
    with_deadline,
)
from repro.reporting import (
    EXPERIMENTS,
    Experiment,
    get_experiment,
    render_table,
    run_trace,
)
from repro.runner import (
    GridResult,
    RunResult,
    execute_job,
    run_experiment,
    run_grid,
    runnable_experiments,
)
from repro.service import JobResult, JobSpec, SubmitRequest
from repro.survey import generate_corpus
from repro.workloads import simulate_fabric, simulate_fabric_sharded

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "FaultInjector",
    "FaultSpec",
    "GridResult",
    "JobResult",
    "JobSpec",
    "Observability",
    "RandomStream",
    "RetryPolicy",
    "RunResult",
    "ServiceClient",
    "ShardedSimulation",
    "Simulator",
    "SubmitRequest",
    "__version__",
    "build_roadmap",
    "execute_job",
    "generate_corpus",
    "get_experiment",
    "mc",
    "partition_fabric",
    "render_table",
    "run_experiment",
    "run_grid",
    "run_trace",
    "runnable_experiments",
    "simulate_fabric",
    "simulate_fabric_sharded",
    "with_deadline",
]
