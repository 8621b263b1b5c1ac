"""Sharded conservative-time discrete-event simulation.

Run one :class:`~repro.engine.sim.Simulator` per shard of a workload's
cut under conservative time-window synchronization
(:class:`~repro.engine.sharded.coordinator.ShardedSimulation`), and
deterministically merge the per-shard traces
(:func:`~repro.engine.sharded.sync.merge_shard_traces`) into a single
canonical trace that is bit-for-bit identical to the single-process
engine's. The workload owns the cut: it knows its own structure, so it
assigns nodes to shards and reports the lookahead.
:mod:`repro.workloads.fabricsim` is the reference workload; it cuts a
fabric along its pods (leaves). See DESIGN.md "Conservative
synchronization invariants" for the lookahead safety and
merge-determinism arguments.
"""

from repro.engine.sharded.coordinator import (
    ShardedRunResult,
    ShardedSimulation,
)
from repro.engine.sharded.sync import (
    BoundaryEvent,
    canonical_trace_lines,
    exclusive_until,
    merge_shard_traces,
    next_window,
    trace_digest,
)

__all__ = [
    "BoundaryEvent",
    "ShardedRunResult",
    "ShardedSimulation",
    "canonical_trace_lines",
    "exclusive_until",
    "merge_shard_traces",
    "next_window",
    "trace_digest",
]
