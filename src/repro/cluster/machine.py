"""Cluster assembly: servers attached to a fabric.

A :class:`Cluster` binds :class:`~repro.node.server.Server` instances to
the host nodes of a :class:`~repro.network.topology.Fabric`, giving the
frameworks and scheduler layers one object that knows both compute and
network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import TopologyError
from repro.network.topology import Fabric
from repro.node.server import Server


@dataclass
class Cluster:
    """Servers mapped one-to-one onto fabric host nodes."""

    fabric: Fabric
    servers: Dict[str, Server] = field(default_factory=dict)

    def attach(self, host: str, server: Server) -> None:
        """Place ``server`` at fabric node ``host``."""
        if host not in self.fabric.graph:
            raise TopologyError(f"unknown fabric node: {host}")
        if self.fabric.role(host) != "host":
            raise TopologyError(f"{host} is not a host node")
        if host in self.servers:
            raise TopologyError(f"host {host} already has a server")
        self.servers[host] = server

    def attach_uniform(self, server_factory) -> None:
        """Attach one server from ``server_factory()`` to every host."""
        for host in self.fabric.hosts:
            if host not in self.servers:
                self.attach(host, server_factory())

    def server_at(self, host: str) -> Server:
        """The server at ``host``."""
        if host not in self.servers:
            raise TopologyError(f"no server at {host}")
        return self.servers[host]

    @property
    def hosts(self) -> List[str]:
        """Hosts that have servers, sorted."""
        return sorted(self.servers)

    @property
    def n_servers(self) -> int:
        """Number of attached servers."""
        return len(self.servers)


def uniform_cluster(fabric: Fabric, server_factory) -> Cluster:
    """A cluster with identical servers on every fabric host."""
    cluster = Cluster(fabric)
    cluster.attach_uniform(server_factory)
    return cluster
