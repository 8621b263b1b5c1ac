"""Packet-level queueing simulation on the DES kernel.

Where the flow-level model answers "how long do these bulk transfers
take", this module answers "what is the latency distribution of small
messages through a loaded path" -- the question behind tail-latency
claims. Each traversed link is an output queue: serialize at link rate
behind whatever is already queued, plus a fixed propagation/switching
delay per hop.

Used by the flow-vs-packet ablation bench and the Catapult experiment's
network leg.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.engine import Resource, Simulator
from repro.errors import TopologyError
from repro.network.routing import ecmp_path_for_flow
from repro.network.topology import Fabric


@dataclass
class PacketRecord:
    """The measured life of one packet."""

    packet_id: int
    src: str
    dst: str
    size_bytes: float
    sent_s: float
    received_s: Optional[float] = None

    @property
    def latency_s(self) -> float:
        """End-to-end latency (raises if the packet has not arrived)."""
        if self.received_s is None:
            raise TopologyError(f"packet {self.packet_id} still in flight")
        return self.received_s - self.sent_s


class PacketNetwork:
    """Store-and-forward packet transport over a fabric.

    One :class:`~repro.engine.Resource` per directed link serializes
    packets; ``hop_delay_s`` models propagation plus switching latency.
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        hop_delay_s: float = 0.5e-6,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.hop_delay_s = hop_delay_s
        self._ports: Dict[Tuple[str, str], Resource] = {}
        self.delivered: List[PacketRecord] = []

    def _port(self, a: str, b: str) -> Resource:
        key = (a, b)
        if key not in self._ports:
            self._ports[key] = Resource(self.sim, capacity=1)
        return self._ports[key]

    def send(
        self,
        packet_id: int,
        src: str,
        dst: str,
        size_bytes: float,
        path: Optional[List[str]] = None,
    ) -> PacketRecord:
        """Inject a packet; returns its (live) record."""
        record = PacketRecord(packet_id, src, dst, size_bytes, self.sim.now)
        chosen = path or ecmp_path_for_flow(self.fabric, src, dst, packet_id)
        self.sim.spawn(self._transit(record, chosen), name=f"pkt{packet_id}")
        return record

    def _transit(self, record: PacketRecord, path: List[str]):
        for a, b in zip(path, path[1:]):
            port = self._port(a, b)
            yield port.acquire()
            rate_bytes_per_s = self.fabric.link_rate_gbps(a, b) * 1e9 / 8.0
            yield self.sim.timeout(record.size_bytes / rate_bytes_per_s)
            port.release()
            yield self.sim.timeout(self.hop_delay_s)
        record.received_s = self.sim.now
        self.delivered.append(record)
