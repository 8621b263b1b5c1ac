"""Synthetic data generators for the benchmark suite.

Recommendation 8 notes the difficulty of accessing training data in
Europe; every workload in this library therefore ships with a seeded
synthetic generator: Zipf-distributed text, relational tables, IoT
sensor readings and web-like graphs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.engine.randomness import RandomStream
from repro.errors import ModelError

#: A compact wordlist; Zipf sampling makes frequency realistic.
_WORDLIST = [
    "data", "big", "cloud", "server", "network", "query", "stream",
    "latency", "storage", "compute", "model", "learn", "graph", "node",
    "edge", "packet", "switch", "fabric", "tensor", "kernel", "cache",
    "index", "shard", "batch", "window", "join", "scan", "filter",
    "reduce", "map", "sort", "hash", "key", "value", "event", "sensor",
    "market", "price", "order", "trade", "user", "click", "page", "search",
    "rank", "score", "result", "engine", "cluster", "rack",
]


def zipf_documents(
    n_documents: int,
    words_per_document: int,
    skew: float = 1.1,
    seed: int = 0,
) -> List[str]:
    """Documents whose word frequencies follow a Zipf law."""
    if n_documents < 1 or words_per_document < 1:
        raise ModelError("need at least one document and one word")
    rng = RandomStream(seed, "zipf-docs")
    indices = rng.zipf_indices(
        len(_WORDLIST), skew, n_documents * words_per_document
    )
    words = [_WORDLIST[i] for i in indices]
    return [
        " ".join(words[i * words_per_document : (i + 1) * words_per_document])
        for i in range(n_documents)
    ]


def sales_table(
    n_rows: int, n_customers: int = 500, seed: int = 0
) -> List[Dict[str, Any]]:
    """A TPC-H-flavoured orders table."""
    if n_rows < 1:
        raise ModelError("need at least one row")
    rng = RandomStream(seed, "sales")
    regions = ("EU", "US", "APAC")
    sectors = ("telecom", "finance", "health", "automotive", "analytics")
    rows = []
    for i in range(n_rows):
        rows.append(
            {
                "order_id": i,
                "customer": f"c{rng.zipf_indices(n_customers, 1.1, 1)[0]}",
                "region": rng.choice(regions, p=[0.5, 0.3, 0.2]),
                "sector": rng.choice(sectors),
                "amount": round(rng.lognormal(120.0, 1.2), 2),
            }
        )
    return rows


def sensor_readings(
    n_readings: int,
    n_sensors: int = 100,
    anomaly_rate: float = 0.01,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """IoT sensor stream with injected anomalies."""
    if n_readings < 1:
        raise ModelError("need at least one reading")
    if not 0.0 <= anomaly_rate < 1.0:
        raise ModelError("anomaly rate must be in [0, 1)")
    rng = RandomStream(seed, "sensors")
    readings = []
    t = 0.0
    for _ in range(n_readings):
        t += rng.exponential(0.01)
        value = rng.normal(20.0, 1.5)
        anomalous = rng.uniform() < anomaly_rate
        if anomalous:
            value += rng.uniform(15.0, 40.0)
        readings.append(
            {
                "time_s": t,
                "sensor": f"s{rng.integer(0, n_sensors)}",
                "value": value,
                "anomalous": anomalous,
            }
        )
    return readings


def web_graph(
    n_nodes: int, edges_per_node: int = 4, seed: int = 0
) -> Dict[str, List[str]]:
    """A preferential-attachment directed graph (power-law in-degree)."""
    if n_nodes < 2:
        raise ModelError("need at least two nodes")
    if edges_per_node < 1:
        raise ModelError("need at least one edge per node")
    rng = RandomStream(seed, "graph")
    nodes = [f"n{i}" for i in range(n_nodes)]
    graph: Dict[str, List[str]] = {node: [] for node in nodes}
    in_degree = np.ones(n_nodes)
    for i in range(1, n_nodes):
        k = min(edges_per_node, i)
        weights = in_degree[:i] / in_degree[:i].sum()
        targets = rng.numpy.choice(i, size=k, replace=False, p=weights)
        for target in targets:
            graph[nodes[i]].append(nodes[int(target)])
            in_degree[int(target)] += 1
    return graph


def gaussian_blobs(
    n_points: int, n_clusters: int = 5, dimensions: int = 8, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Clustered points for the k-means benchmark; returns (points, labels)."""
    if n_points < n_clusters:
        raise ModelError("need at least one point per cluster")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10, 10, size=(n_clusters, dimensions))
    labels = rng.integers(0, n_clusters, size=n_points)
    points = centers[labels] + rng.normal(0, 0.5, size=(n_points, dimensions))
    return points, labels


def science_events(
    n_events: int,
    rate_hz: float = 1e5,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """LHC/SKA-like detector events: timestamp, channel, energy (R2/E14).

    Heavy-tailed energies with a rare 'interesting' population -- the
    filter-then-aggregate shape of large-science stream processing.
    """
    if n_events < 1:
        raise ModelError("need at least one event")
    if rate_hz <= 0:
        raise ModelError("rate must be positive")
    rng = RandomStream(seed, "science").numpy
    times = np.cumsum(rng.exponential(1.0 / rate_hz, size=n_events))
    interesting = rng.uniform(size=n_events) < 0.001
    energies = (1.0 + rng.pareto(3.0, size=n_events)) * np.where(
        interesting, 50.0, 1.0
    )
    channels = rng.integers(0, 4096, size=n_events)
    return [
        {
            "time_s": float(times[i]),
            "channel": int(channels[i]),
            "energy_gev": float(energies[i]),
            "interesting": bool(interesting[i]),
        }
        for i in range(n_events)
    ]
