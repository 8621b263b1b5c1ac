"""Server assembly: devices + memory + NIC into one purchasable node.

A :class:`Server` is the unit that clusters (and the TCO models) reason
about: it has a bill of materials, a power envelope, and a set of compute
devices the scheduler can place work on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ModelError
from repro.node.device import ComputeDevice, DeviceKind
from repro.node.memory import MemoryHierarchy, default_hierarchy


@dataclass(frozen=True)
class Nic:
    """A network interface at one Ethernet generation."""

    rate_gbps: float
    price_usd: float
    power_w: float

    def __post_init__(self) -> None:
        if self.rate_gbps <= 0:
            raise ModelError("NIC rate must be positive")


#: 2016-era NIC price points per generation.
NIC_CATALOG = {
    1.0: Nic(1.0, 30.0, 3.0),
    10.0: Nic(10.0, 250.0, 8.0),
    25.0: Nic(25.0, 450.0, 10.0),
    40.0: Nic(40.0, 700.0, 14.0),
    100.0: Nic(100.0, 1_800.0, 20.0),
}


@dataclass
class Server:
    """A complete compute node.

    ``devices[0]`` is conventionally the host CPU; accelerators follow.
    """

    name: str
    devices: List[ComputeDevice]
    nic: Nic
    memory: MemoryHierarchy = field(default_factory=default_hierarchy)
    chassis_usd: float = 1_200.0
    chassis_power_w: float = 60.0  # fans, PSU losses, board

    def __post_init__(self) -> None:
        if not self.devices:
            raise ModelError(f"server {self.name}: needs at least one device")
        if self.devices[0].kind != DeviceKind.CPU:
            raise ModelError(f"server {self.name}: first device must be a CPU")

    @property
    def cpu(self) -> ComputeDevice:
        """The host CPU."""
        return self.devices[0]

    @property
    def price_usd(self) -> float:
        """Bill of materials."""
        return (
            sum(d.price_usd for d in self.devices)
            + self.nic.price_usd
            + self.memory.total_cost_usd
            + self.chassis_usd
        )


def commodity_server(cpu: ComputeDevice, nic_gbps: float = 10.0) -> Server:
    """The Finding-2 baseline: CPU-only box with a commodity NIC."""
    return Server(
        name=f"commodity-{cpu.name}",
        devices=[cpu],
        nic=NIC_CATALOG[nic_gbps],
    )


def accelerated_server(
    cpu: ComputeDevice,
    accelerator: ComputeDevice,
    nic_gbps: float = 10.0,
    count: int = 1,
) -> Server:
    """A CPU host with ``count`` identical accelerators attached."""
    if count < 1:
        raise ModelError(f"accelerator count must be >= 1, got {count}")
    return Server(
        name=f"{cpu.name}+{count}x{accelerator.name}",
        devices=[cpu] + [accelerator] * count,
        nic=NIC_CATALOG[nic_gbps],
    )
