"""Operator-to-device offload policies (Recommendation 10/11 glue).

An :class:`OffloadPolicy` decides, per building block and record batch,
which of a server's devices runs the operator. Policies:

- ``cpu_only``: the Finding-1 baseline -- accelerators idle.
- ``greedy_time``: fastest device for the batch (includes launch
  overhead, so small batches stay on the CPU).
- ``greedy_energy``: lowest-energy device.

Policies are observable: inside an ambient
:class:`~repro.engine.Observability` scope every placement decision is
counted per device and per block, which is how E11 trace runs attribute
operator work to silicon.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytics.blocks import BuildingBlock
from repro.engine import Observability
from repro.errors import ModelError, SchedulingError
from repro.node.device import ComputeDevice
from repro.node.server import Server


@dataclass(frozen=True)
class OffloadPolicy:
    """A named device-selection rule."""

    name: str

    VALID = ("cpu_only", "greedy_time", "greedy_energy")

    def __post_init__(self) -> None:
        if self.name not in self.VALID:
            raise ModelError(
                f"unknown policy {self.name!r}; choose from {self.VALID}"
            )

    def choose(
        self, block: BuildingBlock, server: Server, n_records: int
    ) -> ComputeDevice:
        """The device on ``server`` that should run ``block``."""
        if n_records < 1:
            raise SchedulingError("need at least one record")
        if self.name == "cpu_only":
            return self._chosen(block, server.cpu, n_records)
        candidates = [d for d in server.devices if block.runs_on(d)]
        if not candidates:
            raise SchedulingError(
                f"no device on {server.name} can run {block.name}"
            )

        def time_of(device: ComputeDevice) -> float:
            return block.time_s(device, n_records)

        if self.name == "greedy_time":
            choice = min(candidates, key=lambda d: (time_of(d), d.name))
        else:
            choice = min(
                candidates, key=lambda d: (time_of(d) * d.tdp_w, d.name)
            )
        return self._chosen(block, choice, n_records)

    def _chosen(
        self, block: BuildingBlock, device: ComputeDevice, n_records: int
    ) -> ComputeDevice:
        """Count the placement decision in an ambient observability."""
        observability = Observability.current()
        if observability is not None:
            registry = observability.registry
            registry.counter(f"offload.{self.name}.decisions").inc()
            registry.counter(
                f"offload.{self.name}.device.{device.kind.value}"
            ).inc()
            registry.counter(
                f"offload.{self.name}.records.{block.name}"
            ).inc(n_records)
        return device


def cpu_only() -> OffloadPolicy:
    """The no-accelerator baseline policy."""
    return OffloadPolicy("cpu_only")


def greedy_time() -> OffloadPolicy:
    """Minimize wall-clock per operator batch."""
    return OffloadPolicy("greedy_time")


def greedy_energy() -> OffloadPolicy:
    """Minimize energy per operator batch."""
    return OffloadPolicy("greedy_energy")
