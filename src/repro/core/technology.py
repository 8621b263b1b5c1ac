"""Technology catalog: everything the roadmap names, as data.

Each :class:`Technology` carries its 2016 technology-readiness level
(TRL, the EC's 1-9 scale), market/adoption parameters for forecasting,
and which part of the stack it belongs to. The catalog drives the
adoption forecasts (E9), the recommendation engine (E16) and the
ecosystem coverage analysis (F1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.errors import ModelError


class StackLayer(enum.Enum):
    """Where in the system stack a technology lives."""

    NETWORK = "network"
    NODE = "node"
    SOFTWARE = "software"


@dataclass(frozen=True)
class Technology:
    """One roadmap technology.

    ``trl_2016``: readiness at roadmap publication (1=principles,
    9=proven in operation). ``maturity_year``: expected commodity
    availability. ``eu_strength``: 0-1 judgement of Europe's position
    (the roadmap's competitive-advantage axis). ``risk``: 0-1 judgement
    of technical/market risk.
    """

    name: str
    layer: StackLayer
    trl_2016: int
    maturity_year: int
    eu_strength: float
    risk: float
    description: str = ""

    def __post_init__(self) -> None:
        if not 1 <= self.trl_2016 <= 9:
            raise ModelError(f"{self.name}: TRL must be 1-9")
        if not 0.0 <= self.eu_strength <= 1.0:
            raise ModelError(f"{self.name}: eu_strength must be in [0, 1]")
        if not 0.0 <= self.risk <= 1.0:
            raise ModelError(f"{self.name}: risk must be in [0, 1]")


#: The technologies §IV discusses, with 2016-era TRL judgements.
TECHNOLOGY_CATALOG: Dict[str, Technology] = {
    tech.name: tech
    for tech in (
        Technology(
            "10-40gbe", StackLayer.NETWORK, 9, 2015, 0.6, 0.05,
            "commodity 10/40 GbE adoption (R1)",
        ),
        Technology(
            "100gbe", StackLayer.NETWORK, 8, 2018, 0.5, 0.15,
            "hyperscaler-grade 100 GbE",
        ),
        Technology(
            "400gbe", StackLayer.NETWORK, 4, 2021, 0.45, 0.35,
            "beyond-400GbE appliances, post-2020 (R3)",
        ),
        Technology(
            "silicon-photonics", StackLayer.NETWORK, 5, 2022, 0.55, 0.4,
            "photonics-on-silicon integration (R3)",
        ),
        Technology(
            "sdn", StackLayer.NETWORK, 7, 2017, 0.5, 0.2,
            "software-defined networking control planes",
        ),
        Technology(
            "nfv", StackLayer.NETWORK, 6, 2018, 0.55, 0.25,
            "network function virtualization",
        ),
        Technology(
            "bare-metal-switching", StackLayer.NETWORK, 7, 2017, 0.4, 0.2,
            "commodity switches with third-party NOS",
        ),
        Technology(
            "disaggregation", StackLayer.NETWORK, 3, 2023, 0.5, 0.5,
            "composable CPU/memory/storage pools",
        ),
        Technology(
            "gpgpu", StackLayer.NODE, 8, 2016, 0.25, 0.15,
            "general-purpose GPU computing",
        ),
        Technology(
            "fpga-accel", StackLayer.NODE, 6, 2019, 0.5, 0.3,
            "FPGA acceleration for analytics (R4/R6)",
        ),
        Technology(
            "hls-tools", StackLayer.SOFTWARE, 4, 2020, 0.55, 0.4,
            "high-level FPGA programming (R6)",
        ),
        Technology(
            "asic-accel", StackLayer.NODE, 5, 2020, 0.3, 0.45,
            "application-specific accelerators",
        ),
        Technology(
            "neuromorphic", StackLayer.NODE, 3, 2026, 0.6, 0.7,
            "spike-based computing (R7)",
        ),
        Technology(
            "sip-chiplets", StackLayer.NODE, 5, 2020, 0.65, 0.35,
            "system-in-package integration (EUROSERVER, R5)",
        ),
        Technology(
            "nvm", StackLayer.NODE, 6, 2019, 0.45, 0.3,
            "non-volatile main memory (R5)",
        ),
        Technology(
            "distributed-frameworks", StackLayer.SOFTWARE, 9, 2014, 0.6, 0.05,
            "MapReduce/Spark/Flink ecosystems",
        ),
        Technology(
            "accelerated-blocks", StackLayer.SOFTWARE, 4, 2020, 0.55, 0.35,
            "hardware-accelerated framework building blocks (R10)",
        ),
        Technology(
            "hetero-scheduling", StackLayer.SOFTWARE, 4, 2020, 0.6, 0.3,
            "dynamic heterogeneous resource allocation (R11)",
        ),
        Technology(
            "standard-benchmarks", StackLayer.SOFTWARE, 3, 2019, 0.6, 0.2,
            "Big Data architecture benchmarks (R9)",
        ),
    )
}


def get_technology(name: str) -> Technology:
    """Catalog lookup with a helpful error."""
    if name not in TECHNOLOGY_CATALOG:
        raise ModelError(f"unknown technology: {name!r}")
    return TECHNOLOGY_CATALOG[name]
