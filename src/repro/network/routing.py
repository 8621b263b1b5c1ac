"""Routing over fabrics: ECMP shortest-path sets."""

from __future__ import annotations

from typing import List, Tuple

import networkx as nx

from repro.errors import TopologyError
from repro.network.topology import Fabric


def ecmp_paths(fabric: Fabric, src: str, dst: str) -> List[List[str]]:
    """All equal-cost (hop-count) shortest paths, deterministically ordered.

    This is the path set an ECMP hash spreads flows across; fat-trees owe
    their bisection bandwidth to its size. Computed over the fabric's
    *active* topology, so a link failure reroutes flows across the
    surviving equal-cost paths.

    Path sets are memoized on the fabric per
    :attr:`~repro.network.topology.Fabric.state_version` (the same
    protocol as the flow solver's capacity cache), so repeated routing
    between faults -- the chaos-run hot path -- costs one version
    compare and one dict lookup instead of a shortest-path enumeration.
    A hit skips the endpoint checks: the pair was valid when its paths
    were cached, and any edit since would have moved the version. Treat
    the returned paths as immutable; they are shared across callers.
    """
    version = fabric.state_version
    cache = getattr(fabric, "_repro_ecmp_cache", None)
    if cache is not None and cache[0] == version:
        paths = cache[1].get((src, dst))
        if paths is not None:
            return paths
    else:
        cache = (version, {})
        fabric._repro_ecmp_cache = cache
    _check_endpoints(fabric, src, dst)
    try:
        paths = sorted(nx.all_shortest_paths(fabric.active_graph(), src, dst))
    except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
        raise TopologyError(f"no path {src} -> {dst}") from exc
    cache[1][(src, dst)] = paths
    return paths


def ecmp_path_for_flow(
    fabric: Fabric, src: str, dst: str, flow_id: int
) -> List[str]:
    """Deterministic ECMP pick: hash the flow id over the path set."""
    paths = ecmp_paths(fabric, src, dst)
    return paths[flow_id % len(paths)]


def path_links(path: List[str]) -> List[Tuple[str, str]]:
    """Canonically-ordered (sorted endpoint) link keys along a path."""
    if len(path) < 2:
        raise TopologyError(f"path too short: {path}")
    return [tuple(sorted((a, b))) for a, b in zip(path, path[1:])]


def path_bottleneck_gbps(fabric: Fabric, path: List[str]) -> float:
    """The minimum link rate along a path."""
    return min(fabric.link_rate_gbps(a, b) for a, b in zip(path, path[1:]))


def _check_endpoints(fabric: Fabric, src: str, dst: str) -> None:
    for node in (src, dst):
        if node not in fabric.graph:
            raise TopologyError(f"unknown node: {node}")
    if src == dst:
        raise TopologyError(f"src equals dst: {src}")
