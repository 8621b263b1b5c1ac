"""Compute-device models for heterogeneous nodes.

The roadmap's §IV.B discusses CPUs, GPUs, FPGAs, ASICs, DSPs and
neuromorphic hardware as candidate Big Data accelerators. Each is modelled
as a :class:`ComputeDevice` with a roofline performance envelope
(peak compute rate + memory bandwidth), a power envelope, a price, and a
programmability profile (the adoption barrier of §IV.C).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ModelError


class DeviceKind(enum.Enum):
    """Classes of compute hardware the paper considers."""

    CPU = "cpu"
    GPU = "gpu"
    FPGA = "fpga"
    ASIC = "asic"
    DSP = "dsp"
    NEUROMORPHIC = "neuromorphic"


class ProgrammingModel(enum.Enum):
    """Programming abstractions from §IV.C.3 ("too many abstractions")."""

    SEQUENTIAL = "sequential"  # plain single-threaded code
    OPENMP = "openmp"  # node-level multicore
    SIMD = "simd"  # CPU vector intrinsics
    CUDA = "cuda"  # vendor-locked GPU kernels
    OPENCL = "opencl"  # portable kernels (correctness, not performance)
    HDL = "hdl"  # VHDL/Verilog for FPGAs
    HLS = "hls"  # high-level synthesis (R6 target)
    ASIC_API = "asic_api"  # fixed-function device APIs
    SPIKE = "spike"  # neuromorphic spike-based programming


@dataclass(frozen=True)
class Programmability:
    """How hard a device is to program, per §IV.B.1/§IV.C.

    ``port_effort_person_months`` is the effort to port one non-trivial
    analytics kernel to the device's *native* model;
    ``native_model`` is that model; ``portable_models`` lists abstractions
    that run on the device at ``portable_efficiency`` of native speed
    (OpenCL "only ensures correctness ... not optimized");
    ``vendor_locked`` marks single-vendor ecosystems (CUDA).
    """

    native_model: ProgrammingModel
    port_effort_person_months: float
    portable_models: tuple = ()
    portable_efficiency: float = 0.6
    vendor_locked: bool = False

    def __post_init__(self) -> None:
        if self.port_effort_person_months < 0:
            raise ModelError("port effort cannot be negative")
        if not 0.0 < self.portable_efficiency <= 1.0:
            raise ModelError("portable efficiency must be in (0, 1]")


@dataclass(frozen=True)
class ComputeDevice:
    """A roofline-modelled compute device.

    Performance parameters:

    - ``peak_ops_per_s``: peak arithmetic throughput (FLOP/s for CPU/GPU,
      equivalent fixed-point op/s for FPGA/ASIC/neuromorphic).
    - ``mem_bw_bytes_per_s``: sustained memory bandwidth.
    - ``efficiency``: fraction of peak achievable by well-tuned real code
      (CPUs sustain more of peak than early FPGA toolchains do).
    - ``launch_overhead_s``: fixed cost per offloaded kernel (PCIe,
      driver, reconfiguration); the reason small kernels don't offload.
    """

    name: str
    kind: DeviceKind
    peak_ops_per_s: float
    mem_bw_bytes_per_s: float
    tdp_w: float
    idle_w: float
    price_usd: float
    programmability: Programmability
    efficiency: float = 0.8
    launch_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if self.peak_ops_per_s <= 0 or self.mem_bw_bytes_per_s <= 0:
            raise ModelError(f"{self.name}: peak rates must be positive")
        if self.idle_w > self.tdp_w:
            raise ModelError(f"{self.name}: idle power exceeds TDP")
        if not 0.0 < self.efficiency <= 1.0:
            raise ModelError(f"{self.name}: efficiency must be in (0, 1]")
        if self.launch_overhead_s < 0:
            raise ModelError(f"{self.name}: negative launch overhead")

    @property
    def ridge_intensity(self) -> float:
        """Operational intensity (op/byte) at the roofline ridge point."""
        return self.peak_ops_per_s / self.mem_bw_bytes_per_s

    def effective_peak(self, model: Optional[ProgrammingModel] = None) -> float:
        """Achievable op rate under a given programming model.

        Native code gets ``efficiency * peak``; portable abstractions pay
        the additional ``portable_efficiency`` tax.
        """
        rate = self.peak_ops_per_s * self.efficiency
        if model is None or model == self.programmability.native_model:
            return rate
        if model in self.programmability.portable_models:
            return rate * self.programmability.portable_efficiency
        raise ModelError(
            f"device {self.name} does not support {model.value}"
        )


@dataclass
class DeviceRegistry:
    """A name-indexed collection of devices."""

    devices: Dict[str, ComputeDevice] = field(default_factory=dict)

    def add(self, device: ComputeDevice) -> None:
        """Register a device; duplicate names are an error."""
        if device.name in self.devices:
            raise ModelError(f"duplicate device name: {device.name}")
        self.devices[device.name] = device

    def get(self, name: str) -> ComputeDevice:
        """Look up a device by name."""
        if name not in self.devices:
            raise ModelError(f"unknown device: {name!r}")
        return self.devices[name]

    def of_kind(self, kind: DeviceKind) -> list:
        """All registered devices of one kind, name-sorted."""
        return sorted(
            (d for d in self.devices.values() if d.kind == kind),
            key=lambda d: d.name,
        )

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self):
        return iter(sorted(self.devices.values(), key=lambda d: d.name))
