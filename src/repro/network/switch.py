"""Switch procurement models: branded, white-box, bare-metal (§IV.A.1).

The paper distinguishes three ways to buy a switch:

- **branded**: integrated hardware + vendor NOS + vendor support
  (the Cisco/Juniper model);
- **white box**: commodity hardware preloaded with a third-party NOS;
- **bare metal**: commodity hardware, NOS procured separately
  (Big Switch Light OS, Cumulus Linux, Pica8 PicOS, or in-house a la
  Facebook).

The E6 experiment compares their five-year fleet TCO.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.econ.cost import EnergyPrice, TcoBreakdown
from repro.engine import Observability
from repro.errors import ModelError


class SwitchClass(enum.Enum):
    """Procurement model for a switch."""

    BRANDED = "branded"
    WHITE_BOX = "white_box"
    BARE_METAL = "bare_metal"


@dataclass(frozen=True)
class NosLicense:
    """A network operating system license."""

    name: str
    usd_per_switch: float
    support_usd_per_switch_per_year: float

    def __post_init__(self) -> None:
        if min(self.usd_per_switch, self.support_usd_per_switch_per_year) < 0:
            raise ModelError(f"NOS {self.name}: negative pricing")


#: Representative third-party NOS price points (2016 list-price scale).
NOS_CATALOG: Dict[str, NosLicense] = {
    "cumulus-linux": NosLicense("cumulus-linux", 3_000.0, 600.0),
    "big-switch-light": NosLicense("big-switch-light", 3_500.0, 700.0),
    "pica8-picos": NosLicense("pica8-picos", 2_500.0, 500.0),
    "in-house": NosLicense("in-house", 0.0, 0.0),  # engineering paid separately
}


@dataclass(frozen=True)
class SwitchModel:
    """A purchasable switch configuration."""

    name: str
    switch_class: SwitchClass
    ports: int
    port_gbps: float
    hardware_usd: float
    power_w: float
    nos: NosLicense
    vendor_support_frac: float = 0.0  # yearly fraction of hardware price

    def __post_init__(self) -> None:
        if self.ports < 1:
            raise ModelError(f"{self.name}: needs at least one port")
        if self.port_gbps <= 0:
            raise ModelError(f"{self.name}: port rate must be positive")
        if self.switch_class == SwitchClass.BRANDED and self.nos.usd_per_switch:
            raise ModelError(
                f"{self.name}: branded switches bundle their NOS"
            )

    @property
    def capacity_gbps(self) -> float:
        """Aggregate port capacity."""
        return self.ports * self.port_gbps

    @property
    def acquisition_usd(self) -> float:
        """Hardware plus NOS license."""
        return self.hardware_usd + self.nos.usd_per_switch

    def tco(
        self,
        horizon_years: float,
        energy: EnergyPrice = EnergyPrice(),
        nos_engineering_usd_per_year: float = 0.0,
    ) -> TcoBreakdown:
        """Five-year-style TCO: hardware, NOS, support, energy.

        ``nos_engineering_usd_per_year`` captures the in-house NOS staff
        cost for Facebook-style bare metal.
        """
        if horizon_years <= 0:
            raise ModelError("horizon must be positive")
        tco = TcoBreakdown()
        tco.add("hardware", self.hardware_usd, "capex")
        tco.add("nos-license", self.nos.usd_per_switch, "capex")
        tco.add(
            "nos-support",
            self.nos.support_usd_per_switch_per_year * horizon_years,
            "opex",
        )
        tco.add(
            "vendor-support",
            self.hardware_usd * self.vendor_support_frac * horizon_years,
            "opex",
        )
        seconds = horizon_years * 365 * 86_400
        tco.add("energy", energy.cost_usd(self.power_w, seconds), "opex")
        if nos_engineering_usd_per_year:
            tco.add(
                "nos-engineering",
                nos_engineering_usd_per_year * horizon_years,
                "opex",
            )
        return tco


def branded_switch(ports: int = 32, port_gbps: float = 40.0) -> SwitchModel:
    """A branded ToR switch: premium hardware price, bundled NOS, ~18%/yr support."""
    return SwitchModel(
        name="branded-tor",
        switch_class=SwitchClass.BRANDED,
        ports=ports,
        port_gbps=port_gbps,
        hardware_usd=700.0 * ports * port_gbps / 40.0,
        power_w=4.5 * ports,
        nos=NosLicense("vendor-bundled", 0.0, 0.0),
        vendor_support_frac=0.18,
    )


def white_box_switch(
    ports: int = 32, port_gbps: float = 40.0, nos_name: str = "cumulus-linux"
) -> SwitchModel:
    """A white-box switch: commodity hardware with a preloaded 3rd-party NOS."""
    return SwitchModel(
        name=f"whitebox-{nos_name}",
        switch_class=SwitchClass.WHITE_BOX,
        ports=ports,
        port_gbps=port_gbps,
        hardware_usd=280.0 * ports * port_gbps / 40.0,
        power_w=4.0 * ports,
        nos=NOS_CATALOG[nos_name],
    )


def bare_metal_switch(ports: int = 32, port_gbps: float = 40.0) -> SwitchModel:
    """A bare-metal switch with an in-house NOS (the Facebook model)."""
    return SwitchModel(
        name="baremetal-inhouse",
        switch_class=SwitchClass.BARE_METAL,
        ports=ports,
        port_gbps=port_gbps,
        hardware_usd=250.0 * ports * port_gbps / 40.0,
        power_w=4.0 * ports,
        nos=NOS_CATALOG["in-house"],
    )


def fleet_tco_usd(
    switch: SwitchModel,
    fleet_size: int,
    horizon_years: float = 5.0,
    energy: EnergyPrice = EnergyPrice(),
    inhouse_nos_team_usd_per_year: float = 2_000_000.0,
) -> float:
    """Total fleet cost; in-house NOS engineering amortizes across the fleet.

    The crossover this produces is the paper's point: bare metal only
    pays off for operators with enough switches to amortize a NOS team
    -- hyperscalers, not SMEs. Inside an ambient
    :class:`~repro.engine.Observability` scope it publishes
    per-line-item cost counters and a per-switch-TCO histogram keyed by
    switch name.
    """
    if fleet_size < 1:
        raise ModelError("fleet must have at least one switch")
    per_switch_engineering = 0.0
    if switch.nos.name == "in-house":
        per_switch_engineering = inhouse_nos_team_usd_per_year / fleet_size
    breakdown = switch.tco(
        horizon_years,
        energy=energy,
        nos_engineering_usd_per_year=per_switch_engineering,
    )
    per_switch = breakdown.total_usd
    observability = Observability.current()
    if observability is not None:
        registry = observability.registry
        registry.counter(f"switch.{switch.name}.fleet_evaluations").inc()
        for label, amount in breakdown.by_label().items():
            if amount > 0:
                registry.counter(
                    f"switch.{switch.name}.usd.{label}"
                ).inc(amount * fleet_size)
        registry.histogram(f"switch.{switch.name}.per_switch_tco_usd").observe(
            per_switch
        )
    return per_switch * fleet_size
