"""Data-center fabric topologies.

Provides the two mainstream Clos fabrics (fat-tree and leaf-spine) and a
disaggregated variant where CPU, memory and storage pools attach directly
to the fabric (§IV.A.3 "deconstructing the data center"). Topologies are
networkx graphs wrapped with role metadata and capacity bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import networkx as nx

from repro.errors import TopologyError


#: Node roles used across the library.
ROLE_HOST = "host"
ROLE_TOR = "tor"  # top-of-rack / leaf
ROLE_AGG = "agg"  # aggregation / spine
ROLE_CORE = "core"
ROLE_POOL = "pool"  # disaggregated resource pool


@dataclass
class Fabric:
    """A capacitated data-center network.

    Wraps an undirected :class:`networkx.Graph`; each edge carries
    ``rate_gbps``; each node carries ``role``.

    Links and nodes also carry *dynamic* up/down state for runtime fault
    injection (:mod:`repro.engine.faults`): :meth:`fail_link` /
    :meth:`fail_node` mark elements down without structurally editing the
    graph, and :meth:`active_graph` exposes the surviving topology for
    routing. A fabric with nothing failed behaves (and routes) exactly
    as before this state existed.

    Every change a route or a capacity can depend on bumps the single
    :attr:`state_version` counter: structural edits (:meth:`add_link`,
    :meth:`remove_link`, :meth:`remove_node`) and up/down changes alike.
    Caches keyed on the fabric (ECMP path sets, the flow solver's
    capacity table) key on that counter alone, so every structural edit
    after construction must go through these methods; mutating
    :attr:`graph` directly is unsupported and leaves those caches stale.
    Fabric views that share one ``graph`` (each with private up/down
    state) treat it as immutable.
    """

    name: str
    graph: nx.Graph = field(default_factory=nx.Graph)
    _down_links: set = field(
        default_factory=set, init=False, repr=False, compare=False
    )
    _down_nodes: set = field(
        default_factory=set, init=False, repr=False, compare=False
    )
    _state_version: int = field(
        default=0, init=False, repr=False, compare=False
    )

    def add_node(self, node: str, role: str) -> None:
        """Add a node with a role."""
        if node in self.graph:
            raise TopologyError(f"duplicate node: {node}")
        self.graph.add_node(node, role=role)

    def add_link(self, a: str, b: str, rate_gbps: float) -> None:
        """Add a bidirectional link of ``rate_gbps``."""
        if rate_gbps <= 0:
            raise TopologyError(f"link {a}--{b}: rate must be positive")
        for endpoint in (a, b):
            if endpoint not in self.graph:
                raise TopologyError(f"unknown endpoint: {endpoint}")
        if self.graph.has_edge(a, b):
            raise TopologyError(f"duplicate link {a}--{b}")
        self.graph.add_edge(a, b, rate_gbps=rate_gbps)
        self._bump_state()

    def remove_link(self, a: str, b: str) -> None:
        """Remove the ``a``--``b`` link, forgetting any down mark on it."""
        if not self.graph.has_edge(a, b):
            raise TopologyError(f"no link {a}--{b} to remove")
        self.graph.remove_edge(a, b)
        self._down_links.discard(self.link_key(a, b))
        self._bump_state()

    def remove_node(self, node: str) -> None:
        """Remove ``node`` and its links, forgetting their down marks."""
        if node not in self.graph:
            raise TopologyError(f"no node {node} to remove")
        for neighbor in self.graph.neighbors(node):
            self._down_links.discard(self.link_key(node, neighbor))
        self.graph.remove_node(node)
        self._down_nodes.discard(node)
        self._bump_state()

    # -- dynamic link/node state (fault injection) -------------------------

    @staticmethod
    def link_key(a: str, b: str) -> Tuple[str, str]:
        """Canonical (sorted-endpoint) key for the link between two nodes."""
        return (a, b) if a <= b else (b, a)

    @property
    def state_version(self) -> int:
        """Monotonic counter bumped on every structural or up/down change.

        Caches keyed on the fabric (ECMP path sets, the flow solver's
        link-capacity table) key on this alone: equal versions mean the
        same links exist with the same up/down state.
        """
        return self._state_version

    def fail_link(self, a: str, b: str) -> None:
        """Mark the ``a``--``b`` link down (idempotent)."""
        if not self.graph.has_edge(a, b):
            raise TopologyError(f"no link {a}--{b} to fail")
        key = self.link_key(a, b)
        if key not in self._down_links:
            self._down_links.add(key)
            self._bump_state()

    def restore_link(self, a: str, b: str) -> None:
        """Bring the ``a``--``b`` link back up (idempotent)."""
        if not self.graph.has_edge(a, b):
            raise TopologyError(f"no link {a}--{b} to restore")
        key = self.link_key(a, b)
        if key in self._down_links:
            self._down_links.discard(key)
            self._bump_state()

    def fail_node(self, node: str) -> None:
        """Mark ``node`` (and implicitly its links) down (idempotent)."""
        if node not in self.graph:
            raise TopologyError(f"unknown node: {node}")
        if node not in self._down_nodes:
            self._down_nodes.add(node)
            self._bump_state()

    def restore_node(self, node: str) -> None:
        """Bring ``node`` back up (idempotent)."""
        if node not in self.graph:
            raise TopologyError(f"unknown node: {node}")
        if node in self._down_nodes:
            self._down_nodes.discard(node)
            self._bump_state()

    def link_is_up(self, a: str, b: str) -> bool:
        """Whether the link exists and neither it nor an endpoint is down."""
        if not self.graph.has_edge(a, b):
            raise TopologyError(f"no link {a}--{b}")
        return (
            self.link_key(a, b) not in self._down_links
            and a not in self._down_nodes
            and b not in self._down_nodes
        )

    def active_graph(self) -> nx.Graph:
        """The surviving topology: up nodes and up links only.

        With nothing failed this returns the underlying graph itself
        (zero-copy, so healthy fabrics route exactly as before); with
        failures it returns a read-only :func:`networkx.restricted_view`
        hiding the down elements, cached per :attr:`state_version`.
        The view shares node and edge data with the underlying graph
        (no per-fault copy of a large fabric), so treat it as
        read-only and re-request it after any topology change.
        """
        if not self._down_links and not self._down_nodes:
            return self.graph
        cached = getattr(self, "_active_cache", None)
        if cached is not None and cached[0] == self._state_version:
            return cached[1]
        survivor = nx.restricted_view(
            self.graph, sorted(self._down_nodes), sorted(self._down_links)
        )
        self._active_cache = (self._state_version, survivor)
        return survivor

    def _bump_state(self) -> None:
        """Advance the state version; every version-keyed cache misses."""
        self._state_version += 1

    # -- queries -----------------------------------------------------------

    def role(self, node: str) -> str:
        """Role of ``node``."""
        try:
            return self.graph.nodes[node]["role"]
        except KeyError as exc:
            raise TopologyError(f"unknown node: {node}") from exc

    def nodes_with_role(self, role: str) -> List[str]:
        """Sorted nodes having ``role``."""
        return sorted(
            n for n, data in self.graph.nodes(data=True) if data["role"] == role
        )

    @property
    def hosts(self) -> List[str]:
        """All host nodes."""
        return self.nodes_with_role(ROLE_HOST)

    @property
    def switches(self) -> List[str]:
        """All non-host, non-pool nodes."""
        return sorted(
            n
            for n, data in self.graph.nodes(data=True)
            if data["role"] in (ROLE_TOR, ROLE_AGG, ROLE_CORE)
        )

    def link_rate_gbps(self, a: str, b: str) -> float:
        """Rate of the link between ``a`` and ``b``."""
        try:
            return self.graph.edges[a, b]["rate_gbps"]
        except KeyError as exc:
            raise TopologyError(f"no link {a}--{b}") from exc

    def validate(self) -> None:
        """Check connectivity; raises :class:`TopologyError` when broken."""
        if self.graph.number_of_nodes() == 0:
            raise TopologyError("empty fabric")
        if not nx.is_connected(self.graph):
            raise TopologyError("fabric is not connected")

    def bisection_bandwidth_gbps(self) -> float:
        """Worst-case host-partition cut bandwidth (approximated).

        Uses the standard structural estimate: the minimum cut separating
        one half of the hosts from the other. For the regular fabrics
        built here, the host-count-weighted global min-cut via
        Stoer-Wagner on the switch graph is exact enough for the
        design-comparison experiments.
        """
        hosts = self.hosts
        if len(hosts) < 2:
            raise TopologyError("need at least two hosts for bisection")
        half = set(hosts[: len(hosts) // 2])
        # Max-flow between two super-nodes contracted from the halves.
        flow_graph = nx.Graph()
        for a, b, data in self.graph.edges(data=True):
            a2 = "S" if a in half else ("T" if a in set(hosts) - half else a)
            b2 = "S" if b in half else ("T" if b in set(hosts) - half else b)
            if a2 == b2:
                continue
            rate = data["rate_gbps"]
            if flow_graph.has_edge(a2, b2):
                flow_graph.edges[a2, b2]["capacity"] += rate
            else:
                flow_graph.add_edge(a2, b2, capacity=rate)
        value, _ = nx.maximum_flow(flow_graph, "S", "T")
        return float(value)

    def oversubscription(self) -> float:
        """Host access bandwidth divided by bisection bandwidth.

        1.0 is full bisection; >1 means the fabric is oversubscribed.
        """
        access = sum(
            self.link_rate_gbps(h, next(iter(self.graph.neighbors(h))))
            for h in self.hosts
        )
        return access / (2.0 * self.bisection_bandwidth_gbps())


def leaf_spine(
    n_spines: int,
    n_leaves: int,
    hosts_per_leaf: int,
    host_gbps: float = 10.0,
    uplink_gbps: float = 40.0,
) -> Fabric:
    """A two-tier leaf-spine Clos fabric.

    Every leaf connects to every spine with one ``uplink_gbps`` link and
    to ``hosts_per_leaf`` hosts at ``host_gbps``.
    """
    if min(n_spines, n_leaves, hosts_per_leaf) < 1:
        raise TopologyError("leaf-spine dimensions must be >= 1")
    fabric = Fabric(name=f"leafspine-s{n_spines}-l{n_leaves}-h{hosts_per_leaf}")
    for s in range(n_spines):
        fabric.add_node(f"spine{s}", ROLE_AGG)
    for l in range(n_leaves):
        leaf = f"leaf{l}"
        fabric.add_node(leaf, ROLE_TOR)
        for s in range(n_spines):
            fabric.add_link(leaf, f"spine{s}", uplink_gbps)
        for h in range(hosts_per_leaf):
            host = f"host{l}-{h}"
            fabric.add_node(host, ROLE_HOST)
            fabric.add_link(host, leaf, host_gbps)
    fabric.validate()
    return fabric


def fat_tree(k: int, host_gbps: float = 10.0) -> Fabric:
    """The canonical k-ary fat-tree (k even): k pods, (k/2)^2 cores.

    All fabric links run at ``host_gbps`` -- the fat-tree achieves full
    bisection through path multiplicity rather than faster uplinks.
    """
    if k < 2 or k % 2 != 0:
        raise TopologyError(f"fat-tree requires even k >= 2, got {k}")
    half = k // 2
    fabric = Fabric(name=f"fattree-k{k}")
    # Core switches: (k/2)^2, indexed by (i, j).
    for i in range(half):
        for j in range(half):
            fabric.add_node(f"core{i}-{j}", ROLE_CORE)
    for pod in range(k):
        for a in range(half):
            agg = f"agg{pod}-{a}"
            fabric.add_node(agg, ROLE_AGG)
            # Each aggregation switch connects to k/2 cores (row a).
            for j in range(half):
                fabric.add_link(agg, f"core{a}-{j}", host_gbps)
        for t in range(half):
            tor = f"tor{pod}-{t}"
            fabric.add_node(tor, ROLE_TOR)
            for a in range(half):
                fabric.add_link(tor, f"agg{pod}-{a}", host_gbps)
            for h in range(half):
                host = f"host{pod}-{t}-{h}"
                fabric.add_node(host, ROLE_HOST)
                fabric.add_link(host, tor, host_gbps)
    fabric.validate()
    return fabric


def disaggregated_fabric(
    n_cpu_pools: int,
    n_mem_pools: int,
    n_storage_pools: int,
    n_spines: int = 4,
    pool_gbps: float = 100.0,
) -> Fabric:
    """A composable-infrastructure fabric (§IV.A.3).

    Resource pools (CPU, memory, storage) attach directly to a spine
    tier at ``pool_gbps`` -- the "high bandwidth available at all key
    interconnect nodes" premise of the disaggregation vision.
    """
    if min(n_cpu_pools, n_mem_pools, n_storage_pools, n_spines) < 1:
        raise TopologyError("pool and spine counts must be >= 1")
    fabric = Fabric(
        name=f"disagg-c{n_cpu_pools}-m{n_mem_pools}-s{n_storage_pools}"
    )
    for s in range(n_spines):
        fabric.add_node(f"spine{s}", ROLE_AGG)
    pools = (
        [f"cpu-pool{i}" for i in range(n_cpu_pools)]
        + [f"mem-pool{i}" for i in range(n_mem_pools)]
        + [f"storage-pool{i}" for i in range(n_storage_pools)]
    )
    for pool in pools:
        fabric.add_node(pool, ROLE_POOL)
        for s in range(n_spines):
            fabric.add_link(pool, f"spine{s}", pool_gbps)
    fabric.validate()
    return fabric
