"""Roofline execution model.

A :class:`Kernel` is a unit of computation characterized by its total
operation count, the bytes it moves, and an Amdahl serial fraction. The
roofline model gives the attainable throughput on a device as
``min(compute roof, bandwidth * intensity)``; execution time adds the
serial fraction and any offload launch overhead.

This model is deliberately simple -- the roadmap's argument only needs the
first-order effects: compute-bound kernels love accelerators with high
peak rates, memory-bound kernels don't, and tiny kernels drown in launch
overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ModelError
from repro.node.device import ComputeDevice, ProgrammingModel


@dataclass(frozen=True)
class Kernel:
    """A computation's resource footprint.

    ``ops``: total arithmetic operations.
    ``bytes_moved``: total DRAM traffic.
    ``serial_fraction``: Amdahl fraction that cannot parallelize and runs
    at ``serial_ops_per_s`` regardless of the device's peak.
    """

    name: str
    ops: float
    bytes_moved: float
    serial_fraction: float = 0.0
    serial_ops_per_s: float = 2e9  # one fast scalar core

    def __post_init__(self) -> None:
        if self.ops <= 0:
            raise ModelError(f"kernel {self.name}: ops must be positive")
        if self.bytes_moved < 0:
            raise ModelError(f"kernel {self.name}: negative bytes")
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ModelError(
                f"kernel {self.name}: serial fraction must be in [0, 1]"
            )

    @property
    def intensity(self) -> float:
        """Operational intensity in ops/byte (inf for zero traffic)."""
        if self.bytes_moved == 0:
            return float("inf")
        return self.ops / self.bytes_moved

    def scaled(self, factor: float) -> "Kernel":
        """The same kernel over ``factor`` times more data."""
        if factor <= 0:
            raise ModelError(f"scale factor must be positive, got {factor}")
        return Kernel(
            name=self.name,
            ops=self.ops * factor,
            bytes_moved=self.bytes_moved * factor,
            serial_fraction=self.serial_fraction,
            serial_ops_per_s=self.serial_ops_per_s,
        )


def attainable_ops_per_s(
    kernel: Kernel,
    device: ComputeDevice,
    model: Optional[ProgrammingModel] = None,
) -> float:
    """Roofline-attainable throughput of ``kernel`` on ``device``."""
    compute_roof = device.effective_peak(model)
    if kernel.intensity == float("inf"):
        return compute_roof
    bandwidth_roof = device.mem_bw_bytes_per_s * kernel.intensity
    return min(compute_roof, bandwidth_roof)


def execution_time_s(
    kernel: Kernel,
    device: ComputeDevice,
    model: Optional[ProgrammingModel] = None,
    include_launch_overhead: bool = True,
) -> float:
    """Wall-clock time of ``kernel`` on ``device``.

    The parallel portion runs at the roofline rate; the serial portion at
    the kernel's scalar rate; offload overhead is added once.
    """
    parallel_ops = kernel.ops * (1.0 - kernel.serial_fraction)
    serial_ops = kernel.ops * kernel.serial_fraction
    time = parallel_ops / attainable_ops_per_s(kernel, device, model)
    time += serial_ops / kernel.serial_ops_per_s
    if include_launch_overhead:
        time += device.launch_overhead_s
    return time


def speedup(
    kernel: Kernel,
    accelerator: ComputeDevice,
    baseline: ComputeDevice,
    model: Optional[ProgrammingModel] = None,
) -> float:
    """Wall-clock speedup of ``accelerator`` over ``baseline``."""
    return execution_time_s(kernel, baseline) / execution_time_s(
        kernel, accelerator, model
    )
