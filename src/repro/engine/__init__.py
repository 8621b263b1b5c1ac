"""Deterministic discrete-event simulation kernel.

The kernel follows the SimPy model: processes are generators yielding
:class:`~repro.engine.sim.Event` objects; :class:`~repro.engine.sim.Simulator`
owns the virtual clock. :mod:`~repro.engine.resources` adds counted
resources, continuous containers and FIFO stores;
:mod:`~repro.engine.observability` adds span tracing, a metrics registry
(counters/gauges/histograms) and engine hooks;
:mod:`~repro.engine.randomness` provides reproducible variate streams;
:mod:`~repro.engine.faults` injects deterministic runtime faults;
:mod:`~repro.engine.resilience` provides retry/deadline/hedge
primitives as event chains; and :mod:`~repro.engine.sharded`
runs one kernel per fabric shard under conservative time-window
synchronization, bit-for-bit equivalent to a single-process run.
"""

from repro.engine.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultSpec,
)
from repro.engine.observability import (
    Counter,
    Gauge,
    Histogram,
    Observability,
    Registry,
    Span,
    SpanLog,
)
from repro.engine.randomness import RandomStream
from repro.engine.resilience import (
    HedgeOutcome,
    RetryPolicy,
    hedge_events,
    retry_events,
    with_deadline,
)
from repro.engine.resources import Container, Resource, Store
from repro.engine.sharded import (
    ShardPlan,
    ShardedRunResult,
    ShardedSimulation,
    partition_fabric,
)
from repro.engine.sim import Event, ProcessHandle, Simulator, Timeout

__all__ = [
    "Container",
    "Counter",
    "Event",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "Gauge",
    "HedgeOutcome",
    "Histogram",
    "Observability",
    "ProcessHandle",
    "RandomStream",
    "Registry",
    "Resource",
    "RetryPolicy",
    "ShardPlan",
    "ShardedRunResult",
    "ShardedSimulation",
    "Simulator",
    "Span",
    "SpanLog",
    "Store",
    "Timeout",
    "hedge_events",
    "partition_fabric",
    "retry_events",
    "with_deadline",
]
