"""Return-on-investment models for adopting novel hardware.

Implements the decision calculus behind Key Finding (2) ("European
companies are not convinced of the ROI of using novel hardware") and
Recommendation 4 (reduce risk and cost of using accelerators): an
adoption is worthwhile when the discounted value of the speedup exceeds
hardware price plus the software re-engineering (port) cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ModelError


def npv(cashflows_usd: List[float], discount_rate: float) -> float:
    """Net present value of yearly ``cashflows_usd`` (year 0 first)."""
    if discount_rate <= -1.0:
        raise ModelError(f"discount rate must exceed -100%, got {discount_rate}")
    return sum(
        cash / (1.0 + discount_rate) ** year
        for year, cash in enumerate(cashflows_usd)
    )


@dataclass(frozen=True)
class AcceleratorInvestment:
    """Inputs to the accelerator-adoption ROI decision.

    Parameters mirror the barriers the paper lists: hardware price,
    person-months of re-engineering, uncertain speedup, power draw, and
    the utilization the operator can actually sustain (the paper: "power
    consumption is too high and utilization too low to justify the
    investment").
    """

    hardware_usd: float
    port_effort_person_months: float
    engineer_usd_per_month: float = 12_000.0
    speedup: float = 1.0
    baseline_compute_value_usd_per_year: float = 100_000.0
    accelerator_power_w: float = 250.0
    electricity_usd_per_kwh: float = 0.10
    pue: float = 1.5
    utilization: float = 0.5
    horizon_years: int = 3
    discount_rate: float = 0.08

    def __post_init__(self) -> None:
        if self.speedup <= 0:
            raise ModelError(f"speedup must be positive, got {self.speedup}")
        if not 0.0 <= self.utilization <= 1.0:
            raise ModelError(f"utilization must be in [0, 1], got {self.utilization}")
        if self.horizon_years < 1:
            raise ModelError("horizon must be at least one year")

    @property
    def upfront_cost_usd(self) -> float:
        """Hardware plus one-off software port cost."""
        return (
            self.hardware_usd
            + self.port_effort_person_months * self.engineer_usd_per_month
        )

    @property
    def annual_benefit_usd(self) -> float:
        """Value of the capacity freed by the speedup, scaled by utilization.

        A k-times speedup at utilization u frees ``u * (1 - 1/k)`` of the
        baseline compute spend.
        """
        freed_fraction = self.utilization * (1.0 - 1.0 / self.speedup)
        return self.baseline_compute_value_usd_per_year * freed_fraction

    @property
    def annual_energy_cost_usd(self) -> float:
        """Extra electricity for the accelerator at the given utilization."""
        hours = 24 * 365 * self.utilization
        kwh = self.accelerator_power_w / 1000.0 * hours * self.pue
        return kwh * self.electricity_usd_per_kwh

    def cashflows(self) -> List[float]:
        """Yearly cashflows: year 0 is the upfront cost, then net benefit."""
        net_yearly = self.annual_benefit_usd - self.annual_energy_cost_usd
        return [-self.upfront_cost_usd] + [net_yearly] * self.horizon_years

    def npv_usd(self) -> float:
        """Discounted net value of the adoption over the horizon."""
        return npv(self.cashflows(), self.discount_rate)

    def roi(self) -> float:
        """Simple (undiscounted) ROI: net gain over upfront cost."""
        flows = self.cashflows()
        gain = sum(flows[1:])
        return (gain - self.upfront_cost_usd) / self.upfront_cost_usd

    def worthwhile(self) -> bool:
        """The adoption decision: positive NPV within the horizon."""
        return self.npv_usd() > 0.0


def breakeven_utilization(
    investment: AcceleratorInvestment, tolerance: float = 1e-6
) -> Optional[float]:
    """Smallest utilization at which the investment has positive NPV.

    Bisects on the utilization axis; returns ``None`` when even 100%
    utilization does not pay back (the situation the paper ascribes to
    small/medium data-center operators).
    """
    from dataclasses import replace

    def npv_at(u: float) -> float:
        return replace(investment, utilization=u).npv_usd()

    if npv_at(1.0) <= 0.0:
        return None
    if npv_at(0.0) > 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if npv_at(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def breakeven_speedup(
    investment: AcceleratorInvestment,
    max_speedup: float = 1000.0,
    tolerance: float = 1e-6,
) -> Optional[float]:
    """Smallest speedup making the investment worthwhile, if any."""
    from dataclasses import replace

    def npv_at(k: float) -> float:
        return replace(investment, speedup=k).npv_usd()

    if npv_at(max_speedup) <= 0.0:
        return None
    lo, hi = 1.0, max_speedup
    if npv_at(lo) > 0.0:
        return lo
    while hi - lo > tolerance * max(1.0, lo):
        mid = math.sqrt(lo * hi)  # geometric bisection: speedups are ratios
        if npv_at(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi
