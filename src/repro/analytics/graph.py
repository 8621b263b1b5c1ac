"""Graph-analytics kernels: PageRank and connected components.

Implemented directly on adjacency dictionaries (not via networkx) so the
kernels themselves are library code the benchmark suite measures; tests
cross-check against networkx.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Set

from repro.errors import ModelError

#: Adjacency representation: node -> list of successor nodes.
Adjacency = Dict[Hashable, List[Hashable]]


def _check_graph(graph: Adjacency) -> None:
    if not graph:
        raise ModelError("empty graph")
    for node, successors in graph.items():
        for succ in successors:
            if succ not in graph:
                raise ModelError(
                    f"edge {node}->{succ} points outside the node set"
                )


def pagerank(
    graph: Adjacency,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> Dict[Hashable, float]:
    """Power-iteration PageRank with dangling-node redistribution."""
    _check_graph(graph)
    if not 0.0 < damping < 1.0:
        raise ModelError(f"damping must be in (0, 1), got {damping}")
    nodes = sorted(graph, key=repr)
    n = len(nodes)
    rank = {node: 1.0 / n for node in nodes}
    out_degree = {node: len(graph[node]) for node in nodes}
    for _ in range(max_iterations):
        dangling_mass = sum(
            rank[node] for node in nodes if out_degree[node] == 0
        )
        new_rank = {
            node: (1.0 - damping) / n + damping * dangling_mass / n
            for node in nodes
        }
        for node in nodes:
            if out_degree[node] == 0:
                continue
            share = damping * rank[node] / out_degree[node]
            for succ in graph[node]:
                new_rank[succ] += share
        delta = sum(abs(new_rank[node] - rank[node]) for node in nodes)
        rank = new_rank
        if delta < tolerance:
            break
    return rank


def connected_components(graph: Adjacency) -> List[Set[Hashable]]:
    """Weakly-connected components, largest first."""
    _check_graph(graph)
    undirected: Dict[Hashable, Set[Hashable]] = {node: set() for node in graph}
    for node, successors in graph.items():
        for succ in successors:
            undirected[node].add(succ)
            undirected[succ].add(node)
    seen: Set[Hashable] = set()
    components = []
    for start in sorted(graph, key=repr):
        if start in seen:
            continue
        component = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for neighbor in undirected[node]:
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        seen |= component
        components.append(component)
    return sorted(components, key=len, reverse=True)
