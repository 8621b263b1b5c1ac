"""Non-recurring engineering (NRE) cost models.

The paper invokes NRE twice: switching GPU vendors "requires considerable
Non-recurring Engineering cost" (§IV.B.2), and a market-specific server
SoC "is likely to be cost-prohibitive" (§IV.B.3). This module prices chip
design projects and software ports so those claims become computable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.econ.silicon import ProcessNode
from repro.errors import ModelError


@dataclass(frozen=True)
class EngineeringRates:
    """Fully-loaded engineering cost rates."""

    hardware_engineer_usd_per_year: float = 180_000.0
    software_engineer_usd_per_year: float = 150_000.0
    verification_fraction: float = 0.6  # verification adds 60% on design effort

    def __post_init__(self) -> None:
        if min(
            self.hardware_engineer_usd_per_year,
            self.software_engineer_usd_per_year,
        ) <= 0:
            raise ModelError("engineering rates must be positive")
        if self.verification_fraction < 0:
            raise ModelError("verification fraction cannot be negative")


@dataclass
class ChipProject:
    """A chip design project priced by its major NRE components.

    ``design_effort_person_years`` covers RTL through physical design;
    verification is added as a fraction; masks come from the process
    node; IP licensing covers purchased blocks (cores, SerDes, memory
    controllers); software covers drivers/firmware/toolchain work.
    """

    name: str
    node: ProcessNode
    design_effort_person_years: float
    ip_licensing_usd: float = 0.0
    software_effort_person_years: float = 0.0
    respins: int = 1  # additional mask sets beyond the first
    rates: EngineeringRates = field(default_factory=EngineeringRates)

    def __post_init__(self) -> None:
        if self.design_effort_person_years < 0:
            raise ModelError("design effort cannot be negative")
        if self.respins < 0:
            raise ModelError("respins cannot be negative")

    @property
    def design_cost_usd(self) -> float:
        """RTL + physical design labour."""
        return (
            self.design_effort_person_years
            * self.rates.hardware_engineer_usd_per_year
        )

    @property
    def verification_cost_usd(self) -> float:
        """Verification labour as a fraction of design labour."""
        return self.design_cost_usd * self.rates.verification_fraction

    @property
    def mask_cost_usd(self) -> float:
        """Mask sets: first set plus respins."""
        return self.node.mask_set_cost_usd * (1 + self.respins)

    @property
    def software_cost_usd(self) -> float:
        """Drivers, firmware and toolchain labour."""
        return (
            self.software_effort_person_years
            * self.rates.software_engineer_usd_per_year
        )

    def total_nre_usd(self) -> float:
        """All NRE components summed."""
        return (
            self.design_cost_usd
            + self.verification_cost_usd
            + self.mask_cost_usd
            + self.ip_licensing_usd
            + self.software_cost_usd
        )

    def amortized_usd_per_unit(self, volume_units: float) -> float:
        """NRE per shipped unit at ``volume_units`` lifetime volume."""
        if volume_units <= 0:
            raise ModelError(f"volume must be positive, got {volume_units}")
        return self.total_nre_usd() / volume_units


def vendor_switch_nre_usd(
    codebase_kloc: float,
    fraction_device_specific: float = 0.15,
    rewrite_usd_per_kloc: float = 25_000.0,
    revalidation_factor: float = 1.5,
) -> float:
    """Cost of migrating an accelerated codebase to another vendor.

    The device-specific fraction (kernels, tuning, build glue) must be
    rewritten, then the whole port revalidated; ``revalidation_factor``
    multiplies the rewrite cost to cover testing and performance
    re-tuning. Models the lock-in cost of §IV.B.2.
    """
    if codebase_kloc < 0:
        raise ModelError("codebase size cannot be negative")
    if not 0.0 <= fraction_device_specific <= 1.0:
        raise ModelError("device-specific fraction must be in [0, 1]")
    rewrite = codebase_kloc * fraction_device_specific * rewrite_usd_per_kloc
    return rewrite * revalidation_factor
