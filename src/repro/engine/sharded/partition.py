"""Fabric partitioning for sharded simulation.

A :class:`ShardPlan` assigns every node of a
:class:`~repro.network.topology.Fabric` to exactly one shard and
identifies the *boundary links* -- links whose endpoints live on
different shards. Cross-shard packet hops travel over boundary links
only, so the minimum base latency over those links is a valid
*lookahead* for conservative time-window synchronization: a shard that
has processed everything strictly before window ``W`` cannot cause an
event on another shard earlier than ``W + lookahead``.

Cuts are structure-aware so that boundary traffic (and therefore
synchronization pressure) stays low:

- **fat-tree** fabrics cut pod-aligned: each pod's aggregation/ToR
  switches and hosts stay together, and only the agg--core links cross
  shards (cores are distributed round-robin by row).
- **leaf-spine** fabrics cut leaf-aligned: a leaf and its hosts stay
  together; only leaf--spine uplinks cross.
- anything else falls back to contiguous blocks over sorted node names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.errors import SimulationError

_FAT_TREE_PATTERNS = (
    re.compile(r"^core(\d+)-(\d+)$"),
    re.compile(r"^agg(\d+)-(\d+)$"),
    re.compile(r"^tor(\d+)-(\d+)$"),
    re.compile(r"^host(\d+)-(\d+)-(\d+)$"),
)
_LEAF_SPINE_PATTERNS = (
    re.compile(r"^spine(\d+)$"),
    re.compile(r"^leaf(\d+)$"),
    re.compile(r"^host(\d+)-(\d+)$"),
)


@dataclass(frozen=True)
class ShardPlan:
    """A complete node->shard assignment plus its boundary cut.

    ``lookahead_s`` is the minimum base latency over ``boundary_links``
    (``inf`` when the cut is empty, e.g. a single shard): the safe
    conservative window width for barrier-synchronous advancement.
    """

    n_shards: int
    kind: str
    owner: Dict[str, int] = field(repr=False)
    boundary_links: Tuple[Tuple[str, str], ...]
    lookahead_s: float


def _classify(nodes) -> str:
    """Which named topology family the node-name set belongs to."""
    for kind, patterns in (
        ("fat-tree", _FAT_TREE_PATTERNS),
        ("leaf-spine", _LEAF_SPINE_PATTERNS),
    ):
        if all(any(p.match(n) for p in patterns) for n in nodes):
            return kind
    return "generic"


def _fat_tree_owner(nodes, n_shards: int) -> Dict[str, int]:
    pods = set()
    for node in nodes:
        m = re.match(r"^(?:agg|tor|host)(\d+)-", node)
        if m:
            pods.add(int(m.group(1)))
    n_pods = len(pods)
    if n_shards > n_pods:
        raise SimulationError(
            f"cannot cut a {n_pods}-pod fat-tree into {n_shards} shards; "
            f"pod-aligned cuts need n_shards <= {n_pods}"
        )
    owner: Dict[str, int] = {}
    core_index = 0
    for node in sorted(nodes):
        m = re.match(r"^core(\d+)-(\d+)$", node)
        if m:
            owner[node] = core_index % n_shards
            core_index += 1
            continue
        pod = int(re.match(r"^(?:agg|tor|host)(\d+)-", node).group(1))
        owner[node] = pod * n_shards // n_pods
    return owner


def _leaf_spine_owner(nodes, n_shards: int) -> Dict[str, int]:
    leaves = {
        int(m.group(1))
        for m in (re.match(r"^leaf(\d+)$", n) for n in nodes)
        if m
    }
    n_leaves = len(leaves)
    if n_shards > n_leaves:
        raise SimulationError(
            f"cannot cut a {n_leaves}-leaf fabric into {n_shards} shards; "
            f"leaf-aligned cuts need n_shards <= {n_leaves}"
        )
    owner: Dict[str, int] = {}
    spine_index = 0
    for node in sorted(nodes):
        m = re.match(r"^spine(\d+)$", node)
        if m:
            owner[node] = spine_index % n_shards
            spine_index += 1
            continue
        m = re.match(r"^(?:leaf|host)(\d+)", node)
        owner[node] = int(m.group(1)) * n_shards // n_leaves
    return owner


def _generic_owner(nodes, n_shards: int) -> Dict[str, int]:
    ordered = sorted(nodes)
    n = len(ordered)
    return {node: i * n_shards // n for i, node in enumerate(ordered)}


def partition_fabric(
    fabric,
    n_shards: int,
    latency_fn: Callable[[str, str], float],
) -> ShardPlan:
    """Cut ``fabric`` into ``n_shards`` shards with a topology-aware plan.

    ``latency_fn(a, b)`` must return the *minimum* (base, jitter-free)
    latency of the ``a``--``b`` link; the plan's lookahead is the min
    over the boundary cut. Raises :class:`SimulationError` when the cut
    is impossible (more shards than pods/leaves) or a boundary link has
    non-positive base latency (no usable lookahead).
    """
    if n_shards < 1:
        raise SimulationError(f"n_shards must be >= 1, got {n_shards}")
    nodes = list(fabric.graph.nodes)
    if n_shards > len(nodes):
        raise SimulationError(
            f"{n_shards} shards for {len(nodes)} nodes: shards would be empty"
        )
    kind = _classify(nodes)
    if n_shards == 1:
        owner = {node: 0 for node in nodes}
    elif kind == "fat-tree":
        owner = _fat_tree_owner(nodes, n_shards)
    elif kind == "leaf-spine":
        owner = _leaf_spine_owner(nodes, n_shards)
    else:
        owner = _generic_owner(nodes, n_shards)

    boundary: List[Tuple[str, str]] = []
    lookahead = float("inf")
    for a, b in fabric.graph.edges:
        if owner[a] != owner[b]:
            boundary.append(fabric.link_key(a, b))
            latency = latency_fn(a, b)
            if latency <= 0.0:
                raise SimulationError(
                    f"boundary link {a}--{b} has non-positive base latency "
                    f"{latency!r}: conservative sync needs lookahead > 0"
                )
            if latency < lookahead:
                lookahead = latency
    return ShardPlan(
        n_shards=n_shards,
        kind=kind,
        owner=owner,
        boundary_links=tuple(sorted(boundary)),
        lookahead_s=lookahead,
    )
