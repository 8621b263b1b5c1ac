"""Heterogeneous compute-node models (§IV.B of the roadmap).

Devices carry a roofline performance envelope, power, price and a
programmability profile; servers assemble devices, memory and NICs into
purchasable nodes; the catalog provides 2016-era reference parts.
"""

from repro.node.catalog import (
    arm_microserver,
    arria10_fpga,
    default_registry,
    inference_asic,
    keystone_dsp,
    nvidia_k80,
    nvidia_p100,
    truenorth_neuro,
    xeon_e5,
)
from repro.node.device import (
    ComputeDevice,
    DeviceKind,
    DeviceRegistry,
    Programmability,
    ProgrammingModel,
)
from repro.node.memory import (
    MemoryHierarchy,
    MemoryLevel,
    default_hierarchy,
    dram,
    hdd,
    nvm,
    ssd,
)
from repro.node.programmability import (
    AbstractionMatrix,
    PortingStrategy,
    achievable_throughput_fraction,
    hls_uplift_scenario,
    port_effort_person_months,
)
from repro.node.roofline import (
    Kernel,
    attainable_ops_per_s,
    execution_time_s,
    speedup,
)
from repro.node.server import (
    NIC_CATALOG,
    Nic,
    Server,
    accelerated_server,
    commodity_server,
)

__all__ = [
    "AbstractionMatrix",
    "ComputeDevice",
    "DeviceKind",
    "DeviceRegistry",
    "Kernel",
    "MemoryHierarchy",
    "MemoryLevel",
    "NIC_CATALOG",
    "Nic",
    "PortingStrategy",
    "Programmability",
    "ProgrammingModel",
    "Server",
    "accelerated_server",
    "achievable_throughput_fraction",
    "arm_microserver",
    "arria10_fpga",
    "attainable_ops_per_s",
    "commodity_server",
    "default_hierarchy",
    "default_registry",
    "dram",
    "execution_time_s",
    "hdd",
    "hls_uplift_scenario",
    "inference_asic",
    "keystone_dsp",
    "nvidia_k80",
    "nvidia_p100",
    "nvm",
    "port_effort_person_months",
    "speedup",
    "ssd",
    "truenorth_neuro",
    "xeon_e5",
]
