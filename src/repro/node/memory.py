"""Memory-hierarchy model, including non-volatile memory.

Recommendation 5 calls for "integrating ... new non-volatile memories and
I/O interfaces". This module models a node's memory levels (cache, DRAM,
NVM, SSD, HDD) and answers the question the frameworks layer asks:
*what is the effective bandwidth and capacity available to a working set
of a given size?*
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro import units
from repro.errors import ModelError


@dataclass(frozen=True)
class MemoryLevel:
    """One level of the hierarchy."""

    name: str
    capacity_bytes: float
    bandwidth_bytes_per_s: float
    latency_s: float
    usd_per_gb: float
    volatile: bool = True

    def __post_init__(self) -> None:
        if min(self.capacity_bytes, self.bandwidth_bytes_per_s) <= 0:
            raise ModelError(f"{self.name}: capacity and bandwidth must be positive")
        if self.latency_s < 0 or self.usd_per_gb < 0:
            raise ModelError(f"{self.name}: negative latency or price")

    @property
    def cost_usd(self) -> float:
        """Purchase cost of this level at its capacity."""
        return self.capacity_bytes / units.GB * self.usd_per_gb


def dram(capacity_gb: float = 256.0) -> MemoryLevel:
    """DDR4-era DRAM."""
    return MemoryLevel(
        "dram", capacity_gb * units.GB, 120 * units.GB, 90e-9, 8.0
    )


def nvm(capacity_gb: float = 1024.0) -> MemoryLevel:
    """3D-XPoint-class storage-class memory (2016 expectation)."""
    return MemoryLevel(
        "nvm", capacity_gb * units.GB, 20 * units.GB, 350e-9, 4.0,
        volatile=False,
    )


def ssd(capacity_gb: float = 2048.0) -> MemoryLevel:
    """NVMe flash."""
    return MemoryLevel(
        "ssd", capacity_gb * units.GB, 2.5 * units.GB, 80e-6, 0.40,
        volatile=False,
    )


def hdd(capacity_gb: float = 8192.0) -> MemoryLevel:
    """Nearline spinning disk."""
    return MemoryLevel(
        "hdd", capacity_gb * units.GB, 0.2 * units.GB, 8e-3, 0.04,
        volatile=False,
    )


@dataclass
class MemoryHierarchy:
    """An ordered (fastest-first) list of memory levels."""

    levels: List[MemoryLevel] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.levels:
            raise ModelError("hierarchy needs at least one level")
        bandwidths = [lvl.bandwidth_bytes_per_s for lvl in self.levels]
        if bandwidths != sorted(bandwidths, reverse=True):
            raise ModelError("levels must be ordered fastest-first")

    @property
    def total_capacity_bytes(self) -> float:
        """Capacity across all levels."""
        return sum(lvl.capacity_bytes for lvl in self.levels)

    @property
    def total_cost_usd(self) -> float:
        """Purchase cost across all levels."""
        return sum(lvl.cost_usd for lvl in self.levels)

    def placement(self, working_set_bytes: float) -> List[tuple]:
        """Greedy fastest-first placement of a working set.

        Returns ``[(level, bytes_placed), ...]``; raises if the set does
        not fit anywhere.
        """
        if working_set_bytes <= 0:
            raise ModelError("working set must be positive")
        remaining = working_set_bytes
        out = []
        for level in self.levels:
            take = min(remaining, level.capacity_bytes)
            if take > 0:
                out.append((level, take))
                remaining -= take
            if remaining <= 0:
                return out
        raise ModelError(
            f"working set of {working_set_bytes:.3g} B exceeds hierarchy "
            f"capacity {self.total_capacity_bytes:.3g} B"
        )


def default_hierarchy(with_nvm: bool = False) -> MemoryHierarchy:
    """The reference node hierarchy; NVM slots between DRAM and SSD (R5)."""
    levels = [dram()]
    if with_nvm:
        levels.append(nvm())
    levels.extend([ssd(), hdd()])
    return MemoryHierarchy(levels)
