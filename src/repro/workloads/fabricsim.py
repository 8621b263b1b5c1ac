"""Hyperscale fabric transport workload -- the sharded-DES reference.

A :class:`FabricWorkload` describes a fat-tree or leaf-spine fabric, a
batch of host-to-host request packets, and an optional
:class:`~repro.engine.faults.FaultSpec` schedule. The same workload runs
two ways:

- :func:`simulate_fabric` -- one :class:`~repro.engine.sim.Simulator`
  holds the whole fabric (the PR-2/PR-6 fast kernel, single process);
- :func:`simulate_fabric_sharded` -- :func:`_cut` splits the fabric
  along its pods (leaves) and each shard runs its own simulator under
  the conservative window protocol of
  :class:`~repro.engine.sharded.coordinator.ShardedSimulation`.

Every simulator, whole-fabric or one shard, is a
:class:`_FabricShardRuntime`; the single-process engine is the runtime
with no cut, run to quiescence in one window. Both ways produce the
*identical* canonical trace and metrics, bit for bit, at any shard
count -- the equivalence gate pinned in
``tests/test_engine_sharded.py``. The design constraints that make that
possible (and that any other sharded workload must respect):

- **Determinism is workload-owned.** Every trace record carries a
  workload-assigned key ``seq = rid * 16 + hop`` that is globally unique
  and engine-independent; traces are canonicalized by sorting on
  ``(when, seq)``, never by kernel pop order.
- **Confluence.** Packet transits share no mutable state with each
  other, so same-timestamp transits commute; the only shared state is
  fabric up/down status, driven by a :class:`FaultInjector` replicated
  in full (same seed, same per-target forked streams) in every shard, so
  every simulator observes the identical fault timeline.
- **Closed float paths.** A packet's hop times are the same sequence of
  float additions in either engine, and boundary events carry the exact
  float ``when`` across shards; ECMP choices and latency jitter hash the
  ``(rid, hop)`` pair instead of drawing from engine-order-dependent
  streams.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.faults import FaultInjector, FaultSpec
from repro.engine.randomness import RandomStream
from repro.engine.sharded.coordinator import ShardedSimulation
from repro.engine.sharded.sync import (
    BoundaryEvent,
    TraceRecord,
    exclusive_until,
    trace_digest,
)
from repro.engine.sim import Simulator
from repro.errors import SimulationError
from repro.network.topology import Fabric, fat_tree, leaf_spine

#: Trace record kinds emitted by the transport workload.
KIND_HOP = "hop"
KIND_DELIVER = "deliver"
KIND_DROP = "drop"

#: ``seq = rid * _SEQ_STRIDE + hop`` -- hop counts must stay below this.
_SEQ_STRIDE = 16

_INV32 = 2.0 ** -32


def _mix(a: int, b: int) -> int:
    """A 32-bit avalanche hash of two small ints (deterministic ECMP)."""
    x = (a * 2654435761 + b * 2246822519 + 3266489917) & 0xFFFFFFFF
    x ^= x >> 15
    x = (x * 2654435769) & 0xFFFFFFFF
    x ^= x >> 13
    return x


@dataclass(frozen=True)
class FabricWorkload:
    """A declarative fabric-transport scenario (engine-agnostic).

    ``n_requests`` packets travel between uniform random distinct host
    pairs, entering the fabric at uniform random times in ``[0,
    duration_s)``. Per-hop latency is the tier's base latency times
    ``1 + jitter * u`` with ``u`` a deterministic per-``(rid, hop)``
    hash in ``[0, 1)`` -- jitter only ever *adds* latency, so tier base
    latencies remain a valid conservative lookahead. ``fault_specs``
    compose a :class:`~repro.engine.faults.FaultInjector` schedule into
    the run; routing is hop-by-hop ECMP over currently-up links, and a
    packet with no surviving next hop is dropped.
    """

    fabric: str = "fat-tree"
    k: int = 8
    n_spines: int = 4
    n_leaves: int = 8
    hosts_per_leaf: int = 8
    n_requests: int = 10_000
    duration_s: float = 2e-3
    seed: int = 0
    edge_latency_s: float = 2e-6
    agg_latency_s: float = 8e-6
    core_latency_s: float = 25e-6
    jitter: float = 0.25
    max_hops: int = 12
    fault_specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.fabric not in ("fat-tree", "leaf-spine"):
            raise SimulationError(
                f"unknown fabric kind {self.fabric!r}; expected "
                f"'fat-tree' or 'leaf-spine'"
            )
        if self.n_requests < 1:
            raise SimulationError("n_requests must be >= 1")
        # Negated comparisons, so NaN fails each check too.
        if not 0 < self.duration_s < math.inf:
            raise SimulationError(
                f"duration_s must be positive and finite, got "
                f"{self.duration_s!r}"
            )
        # The tier latencies bound the sharded engine's lookahead.
        for name in ("edge_latency_s", "agg_latency_s", "core_latency_s"):
            latency = getattr(self, name)
            if not 0 < latency < math.inf:
                raise SimulationError(
                    f"{name} must be positive and finite, got {latency!r}"
                )
        if not 0 <= self.jitter < math.inf:
            raise SimulationError(
                f"jitter must be finite and >= 0, got {self.jitter!r}"
            )
        if not 1 <= self.max_hops <= _SEQ_STRIDE - 1:
            raise SimulationError(
                f"max_hops must be in [1, {_SEQ_STRIDE - 1}]"
            )
        object.__setattr__(self, "fault_specs", tuple(self.fault_specs))
        for spec in self.fault_specs:
            if spec.end_s is None and spec.max_faults is None:
                raise SimulationError(
                    f"{spec.kind} spec needs end_s or max_faults: an "
                    f"unbounded fault process never quiesces, so the "
                    f"simulation would not terminate"
                )


@dataclass(frozen=True)
class FabricRunResult:
    """One fabric-transport run: canonical trace + split metrics.

    ``metrics`` is strictly engine-independent (the equivalence gate
    compares it verbatim between engines); ``diagnostics`` carries
    engine-specific facts -- events processed, barrier rounds, boundary
    event counts -- that legitimately differ between the single-process
    and sharded drivers.
    """

    records: List[TraceRecord] = field(repr=False)
    metrics: Dict[str, Any]
    diagnostics: Dict[str, Any]


def _shape(workload: FabricWorkload) -> tuple:
    """The workload fields that fix the fabric's structure."""
    if workload.fabric == "fat-tree":
        return (workload.fabric, workload.k)
    return (workload.fabric, workload.n_spines, workload.n_leaves,
            workload.hosts_per_leaf)


def _build(shape: tuple) -> Fabric:
    if shape[0] == "fat-tree":
        return fat_tree(shape[1])
    return leaf_spine(*shape[1:])


def build_fabric(workload: FabricWorkload) -> Fabric:
    """The workload's fabric, freshly built with all elements up."""
    return _build(_shape(workload))


@functools.lru_cache(maxsize=1)
def _structure(shape: tuple) -> Tuple[Fabric, "_Tables"]:
    """The immutable graph and routing tables of one fabric shape.

    Built once and shared by every run and every shard of that shape
    (forked shard workers inherit it copy-on-write). Nothing may change
    the returned fabric's up/down state: each simulator routes over its
    own :func:`_fabric_view`. One slot is kept, so a process holds at
    most one shape's graph beyond the runs that use it.
    """
    return _build(shape), _Tables(shape)


def _fabric_view(fabric: Fabric) -> Fabric:
    """A fabric sharing ``fabric``'s graph with private up/down state.

    Every simulator gets its own view so fault mutations at one shard's
    virtual time never leak into another shard mid-window; the
    structural graph itself is immutable and safely shared.
    """
    return Fabric(name=fabric.name, graph=fabric.graph)


class _Tables:
    """Precomputed name/coordinate tables for structural ECMP routing."""

    __slots__ = (
        "kind", "coords", "hosts", "tors", "aggs", "cores_row",
        "leaves", "spines",
    )

    def __init__(self, shape: tuple) -> None:
        self.kind = shape[0]
        coords: Dict[str, tuple] = {}
        hosts: List[str] = []
        if self.kind == "fat-tree":
            k = shape[1]
            half = k // 2
            self.cores_row = [
                [f"core{i}-{j}" for j in range(half)] for i in range(half)
            ]
            for i in range(half):
                for j in range(half):
                    coords[f"core{i}-{j}"] = (3, i, j)
            self.tors = []
            self.aggs = []
            for p in range(k):
                self.aggs.append([f"agg{p}-{a}" for a in range(half)])
                self.tors.append([f"tor{p}-{t}" for t in range(half)])
                for a in range(half):
                    coords[f"agg{p}-{a}"] = (2, p, a)
                for t in range(half):
                    coords[f"tor{p}-{t}"] = (1, p, t)
                    for h in range(half):
                        host = f"host{p}-{t}-{h}"
                        coords[host] = (0, p, t, h)
                        hosts.append(host)
            self.leaves = self.spines = ()
        else:
            _kind, n_spines, n_leaves, hosts_per_leaf = shape
            self.spines = [f"spine{s}" for s in range(n_spines)]
            self.leaves = [f"leaf{l}" for l in range(n_leaves)]
            for s in range(n_spines):
                coords[f"spine{s}"] = (3, s)
            for l in range(n_leaves):
                coords[f"leaf{l}"] = (1, l)
                for h in range(hosts_per_leaf):
                    host = f"host{l}-{h}"
                    coords[host] = (0, l, h)
                    hosts.append(host)
            self.tors = self.aggs = self.cores_row = ()
        self.coords = coords
        self.hosts = hosts

    def base_latency(self, workload: FabricWorkload, a: str, b: str) -> float:
        """Base (jitter-free) latency of the ``a``--``b`` link by tier."""
        tiers = frozenset((self.coords[a][0], self.coords[b][0]))
        if tiers == frozenset((0, 1)):
            return workload.edge_latency_s
        if tiers == frozenset((1, 2)):
            return workload.agg_latency_s
        return workload.core_latency_s


class _ShardContext:
    """Per-simulator mutable state shared by every in-flight transit."""

    __slots__ = (
        "sim", "fabric", "tables", "coords", "records",
        "outbox", "owner", "shard_id", "record_hops", "jitter",
        "max_hops", "edge_latency_s", "agg_latency_s", "core_latency_s",
        "next_hop", "live_ups", "live_version",
    )

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        tables: _Tables,
        workload: FabricWorkload,
        owner: Optional[Dict[str, int]],
        shard_id: int,
        record_hops: bool,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.tables = tables
        self.coords = tables.coords
        self.records: List[TraceRecord] = []
        self.outbox: List[BoundaryEvent] = []
        self.owner = owner
        self.shard_id = shard_id
        self.record_hops = record_hops
        self.jitter = workload.jitter
        self.max_hops = workload.max_hops
        self.edge_latency_s = workload.edge_latency_s
        self.agg_latency_s = workload.agg_latency_s
        self.core_latency_s = workload.core_latency_s
        self.next_hop = (
            self._next_hop_fat_tree
            if workload.fabric == "fat-tree"
            else self._next_hop_leaf_spine
        )
        # Surviving uplinks per node, valid for one fault epoch: the
        # fabric's up/down state changes a handful of times per run,
        # while every upward ECMP hop under faults needs the filter.
        self.live_ups: Dict[str, list] = {}
        self.live_version = fabric.state_version

    def _up(self, a: str, b: str) -> bool:
        fabric = self.fabric
        key = (a, b) if a <= b else (b, a)
        return (
            key not in fabric._down_links
            and a not in fabric._down_nodes
            and b not in fabric._down_nodes
        )

    def _surviving(self, node: str, ups) -> list:
        """``node``'s up links to ``ups``, in order, cached per fault epoch.

        The cache is keyed on :attr:`Fabric.state_version` and dropped
        as soon as it moves (DESIGN.md "State-version protocol").
        """
        version = self.fabric._state_version
        if version != self.live_version:
            self.live_ups.clear()
            self.live_version = version
        live = self.live_ups.get(node)
        if live is None:
            live = [up for up in ups if self._up(node, up)]
            self.live_ups[node] = live
        return live

    def _next_hop_fat_tree(self, node, dst, rid, hop):
        coords = self.coords
        c = coords[node]
        d = coords[dst]
        tier = c[0]
        fabric = self.fabric
        faulty = bool(fabric._down_links or fabric._down_nodes)
        tables = self.tables
        if tier == 0:
            nxt = tables.tors[c[1]][c[2]]
            if faulty and not self._up(node, nxt):
                return None
            return nxt, self.edge_latency_s
        if tier == 1:
            pod = c[1]
            if d[1] == pod and d[2] == c[2]:
                if faulty and not self._up(node, dst):
                    return None
                return dst, self.edge_latency_s
            ups = tables.aggs[pod]
            latency = self.agg_latency_s
        elif tier == 2:
            pod = c[1]
            if d[1] == pod:
                nxt = tables.tors[pod][d[2]]
                if faulty and not self._up(node, nxt):
                    return None
                return nxt, self.agg_latency_s
            ups = tables.cores_row[c[2]]
            latency = self.core_latency_s
        else:
            nxt = tables.aggs[d[1]][c[1]]
            if faulty and not self._up(node, nxt):
                return None
            return nxt, self.core_latency_s
        if faulty:
            ups = self._surviving(node, ups)
            if not ups:
                return None
        return ups[_mix(rid, hop << 1) % len(ups)], latency

    def _next_hop_leaf_spine(self, node, dst, rid, hop):
        coords = self.coords
        c = coords[node]
        d = coords[dst]
        tier = c[0]
        fabric = self.fabric
        faulty = bool(fabric._down_links or fabric._down_nodes)
        tables = self.tables
        if tier == 0:
            nxt = tables.leaves[c[1]]
            if faulty and not self._up(node, nxt):
                return None
            return nxt, self.edge_latency_s
        if tier == 1:
            if d[1] == c[1]:
                if faulty and not self._up(node, dst):
                    return None
                return dst, self.edge_latency_s
            ups = tables.spines
            if faulty:
                ups = self._surviving(node, ups)
                if not ups:
                    return None
            return ups[_mix(rid, hop << 1) % len(ups)], self.core_latency_s
        nxt = tables.leaves[d[1]]
        if faulty and not self._up(node, nxt):
            return None
        return nxt, self.core_latency_s


class _Transit:
    """One packet's journey, hop by hop, as a reschedulable callable."""

    __slots__ = ("ctx", "rid", "node", "hop", "dst")

    def __init__(self, ctx: _ShardContext, rid: int, node: str,
                 hop: int, dst: str) -> None:
        self.ctx = ctx
        self.rid = rid
        self.node = node
        self.hop = hop
        self.dst = dst

    def __call__(self) -> None:
        ctx = self.ctx
        rid = self.rid
        node = self.node
        hop = self.hop
        now = ctx.sim._now
        dst = self.dst
        if node == dst:
            ctx.records.append(
                (now, rid * _SEQ_STRIDE + hop, KIND_DELIVER, node)
            )
            return
        if hop >= ctx.max_hops:
            ctx.records.append(
                (now, rid * _SEQ_STRIDE + hop, KIND_DROP, node)
            )
            return
        step = ctx.next_hop(node, dst, rid, hop)
        if step is None:
            ctx.records.append(
                (now, rid * _SEQ_STRIDE + hop, KIND_DROP, node)
            )
            return
        nxt, base = step
        when = now + base * (
            1.0 + ctx.jitter * (_mix(rid, (hop << 1) | 1) * _INV32)
        )
        if ctx.record_hops:
            ctx.records.append(
                (now, rid * _SEQ_STRIDE + hop, KIND_HOP, node)
            )
        next_hop_index = hop + 1
        owner = ctx.owner
        if owner is not None:
            dest_shard = owner[nxt]
            if dest_shard != ctx.shard_id:
                ctx.outbox.append(BoundaryEvent(
                    when,
                    rid * _SEQ_STRIDE + next_hop_index,
                    dest_shard,
                    (rid, nxt, next_hop_index),
                ))
                return
        self.node = nxt
        self.hop = next_hop_index
        ctx.sim._schedule_at(when, self)


def _generate_requests(workload: FabricWorkload, n_hosts: int):
    """Vectorized (src, dst, start) draws -- one batch, every engine."""
    if n_hosts < 2:
        raise SimulationError("fabric transport needs at least 2 hosts")
    gen = RandomStream(workload.seed, "fabric-transport").fork(
        "requests"
    ).numpy
    src = gen.integers(0, n_hosts, size=workload.n_requests)
    offset = gen.integers(1, n_hosts, size=workload.n_requests)
    dst = (src + offset) % n_hosts
    start = gen.uniform(0.0, workload.duration_s, size=workload.n_requests)
    return src, dst, start


def _install_faults(
    workload: FabricWorkload, sim: Simulator, fabric: Fabric
) -> Optional[FaultInjector]:
    if not workload.fault_specs:
        return None
    injector = FaultInjector(sim, seed=workload.seed, fabric=fabric)
    for spec in workload.fault_specs:
        injector.install(spec)
    return injector


def _schedule_requests(ctx, src, dst_names, start, rids) -> None:
    hosts = ctx.tables.hosts
    schedule = ctx.sim._schedule_at
    src = src.tolist()
    start = start.tolist()
    for rid in rids:
        schedule(start[rid],
                 _Transit(ctx, rid, hosts[src[rid]], 0, dst_names[rid]))


def summarize(
    records: List[TraceRecord],
    starts: np.ndarray,
    n_requests: int,
) -> Dict[str, Any]:
    """Engine-independent end metrics from a canonical trace.

    A pure function of the sorted record list and the request start
    times, so identical traces always yield identical metrics -- the
    second half of the bit-for-bit equivalence contract.
    """
    delivered = 0
    dropped = 0
    hops_total = 0
    latencies: List[float] = []
    start_of = starts.tolist()
    for when, seq, kind, _node in records:
        if kind == KIND_DELIVER:
            delivered += 1
            hops_total += seq & (_SEQ_STRIDE - 1)
            latencies.append(when - start_of[seq // _SEQ_STRIDE])
        elif kind == KIND_DROP:
            dropped += 1
    latencies.sort()
    count = len(latencies)

    def _quantile(q: float) -> float:
        if not count:
            return 0.0
        return latencies[min(count - 1, int(q * count))]

    return {
        "n_requests": n_requests,
        "delivered": delivered,
        "dropped": dropped,
        "availability": delivered / n_requests,
        "mean_hops": hops_total / delivered if delivered else 0.0,
        "p50_latency_us": _quantile(0.50) * 1e6,
        "p99_latency_us": _quantile(0.99) * 1e6,
        "max_latency_us": (latencies[-1] if count else 0.0) * 1e6,
        "t_end_s": records[-1][0] if records else 0.0,
        "trace_records": len(records),
        "trace_sha256": trace_digest(records),
    }


def _cut(
    workload: FabricWorkload,
    tables: _Tables,
    fabric: Fabric,
    n_shards: int,
) -> Tuple[Dict[str, int], Tuple[Tuple[str, str], ...], float]:
    """Cut the fabric into ``n_shards`` shards along its own structure.

    Group ``g`` is pod ``g``'s aggregation and ToR switches with their
    hosts (on a leaf-spine: leaf ``g`` with its hosts); it goes whole
    to shard ``g * n_shards // n_groups``. The cores (spines) are dealt
    round-robin, ``j % n_shards`` in sorted name order. So only
    agg--core (leaf--spine) links cross shards, and the smallest base
    latency over those boundary links is the conservative lookahead
    (``inf`` for an empty cut). Returns ``(owner, boundary_links,
    lookahead_s)``; more shards than groups is refused.
    """
    is_fat_tree = tables.kind == "fat-tree"
    n_groups = len(tables.tors if is_fat_tree else tables.leaves)
    if not 1 <= n_shards <= n_groups:
        raise SimulationError(
            f"cannot cut {n_groups} {'pods' if is_fat_tree else 'leaves'}"
            f" into {n_shards} shards; need 1 <= n_shards <= {n_groups}"
        )
    owner: Dict[str, int] = {}
    tops: List[str] = []
    for node, coords in tables.coords.items():
        if coords[0] == 3:
            tops.append(node)
        else:
            owner[node] = coords[1] * n_shards // n_groups
    for j, node in enumerate(sorted(tops)):
        owner[node] = j % n_shards
    boundary = sorted(
        fabric.link_key(a, b)
        for a, b in fabric.graph.edges if owner[a] != owner[b]
    )
    lookahead = min(
        (tables.base_latency(workload, a, b) for a, b in boundary),
        default=math.inf,
    )
    return owner, tuple(boundary), lookahead


class _FabricShardRuntime:
    """One simulator over the whole fabric or over one shard of it.

    ``owner`` maps every node to its shard (:func:`_cut`); ``None``
    means this simulator holds the whole fabric. The methods are the
    runtime protocol that
    :class:`~repro.engine.sharded.coordinator.ShardedSimulation`
    drives; :func:`simulate_fabric` drives one directly.
    """

    def __init__(
        self,
        workload: FabricWorkload,
        owner: Optional[Dict[str, int]],
        record_hops: bool,
        shard_id: int,
    ) -> None:
        shared, tables = _structure(_shape(workload))
        fabric = _fabric_view(shared)
        src, dst, self.start = _generate_requests(workload, len(tables.hosts))
        self.sim = Simulator()
        self.dst_names = [tables.hosts[i] for i in dst.tolist()]
        self.ctx = _ShardContext(
            self.sim, fabric, tables, workload,
            owner=owner, shard_id=shard_id, record_hops=record_hops,
        )
        self.injector = _install_faults(workload, self.sim, fabric)
        if owner is None:
            rids = range(workload.n_requests)
        else:
            host_owner = np.array(
                [owner[host] for host in tables.hosts], dtype=np.int64
            )
            rids = np.nonzero(host_owner[src] == shard_id)[0].tolist()
        _schedule_requests(self.ctx, src, self.dst_names, self.start, rids)

    def next_time(self) -> Optional[float]:
        """Earliest pending event time in this shard's calendar."""
        return self.sim.peek()

    def schedule_incoming(self, events: List[BoundaryEvent]) -> None:
        """Admit boundary arrivals delivered at the window barrier."""
        ctx = self.ctx
        dst_names = self.dst_names
        schedule = self.sim._schedule_at
        for event in events:
            rid, node, hop = event.payload
            schedule(event.when,
                     _Transit(ctx, rid, node, hop, dst_names[rid]))

    def advance(self, window_end: float) -> List[BoundaryEvent]:
        """Process everything strictly before ``window_end``."""
        if math.isinf(window_end):
            self.sim.run()
        else:
            self.sim.run(until=exclusive_until(window_end))
        outbox = list(self.ctx.outbox)
        self.ctx.outbox.clear()
        return outbox

    def finalize(self):
        """Sorted shard-local records plus per-shard diagnostics."""
        records = self.ctx.records
        records.sort()
        metrics = {
            "events_processed": self.sim.events_processed,
            "fault_events": (
                0 if self.injector is None else len(self.injector.events)
            ),
        }
        return records, metrics


def simulate_fabric(
    workload: FabricWorkload, record_hops: bool = False
) -> FabricRunResult:
    """Run the workload on one single-process simulator (the reference).

    With ``record_hops`` every forwarding decision is recorded, not just
    terminal deliver/drop events -- the high-detail mode the equivalence
    tests compare hop-for-hop.
    """
    runtime = _FabricShardRuntime(workload, None, record_hops, 0)
    runtime.advance(math.inf)
    records, shard_metrics = runtime.finalize()
    metrics = summarize(records, runtime.start, workload.n_requests)
    metrics["fault_events"] = shard_metrics["fault_events"]
    diagnostics = {
        "engine": "single",
        "events_processed": shard_metrics["events_processed"],
        "switches": len(runtime.ctx.fabric.switches),
        "hosts": len(runtime.ctx.tables.hosts),
    }
    return FabricRunResult(
        records=records, metrics=metrics, diagnostics=diagnostics
    )


def simulate_fabric_sharded(
    workload: FabricWorkload,
    shards: int,
    inline: bool = False,
    record_hops: bool = False,
) -> FabricRunResult:
    """Run the workload sharded; bit-for-bit equal to the reference.

    ``shards`` picks the cut width (:func:`_cut`: pod-aligned for
    fat-trees, leaf-aligned for leaf-spine). ``inline`` keeps every
    shard in this process (determinism debugging and tests); the
    default forks one worker process per shard, exchanging boundary
    events over pipes in the :mod:`repro.runner.pool` style.
    """
    fabric, tables = _structure(_shape(workload))
    owner, boundary_links, lookahead_s = _cut(
        workload, tables, fabric, shards
    )
    outcome = ShardedSimulation(
        functools.partial(_FabricShardRuntime, workload, owner, record_hops),
        shards, lookahead_s, inline=inline,
    ).run()
    _src, _dst, start = _generate_requests(workload, len(tables.hosts))
    metrics = summarize(outcome.records, start, workload.n_requests)
    metrics["fault_events"] = outcome.shard_metrics[0]["fault_events"]
    diagnostics = {
        "engine": "sharded-inline" if inline else "sharded-fork",
        "shards": outcome.n_shards,
        "rounds": outcome.rounds,
        "boundary_events": outcome.boundary_events,
        "events_processed": sum(
            m["events_processed"] for m in outcome.shard_metrics
        ),
        "boundary_links": len(boundary_links),
        "lookahead_us": (
            lookahead_s * 1e6 if not math.isinf(lookahead_s) else None
        ),
        "switches": len(fabric.switches),
        "hosts": len(tables.hosts),
    }
    return FabricRunResult(
        records=outcome.records, metrics=metrics, diagnostics=diagnostics
    )
