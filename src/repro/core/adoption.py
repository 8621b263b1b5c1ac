"""Technology adoption forecasting: Bass diffusion, logistic S-curves,
and TRL progression.

Used by the Ethernet-roadmap experiment (E9: 400 GbE "available after
2020") and the recommendation engine's timing judgements. The Bass-vs-
logistic choice is one of the DESIGN.md ablations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ModelError


@dataclass(frozen=True)
class BassModel:
    """Bass diffusion: innovation coefficient ``p``, imitation ``q``.

    Classic values: p ~ 0.01-0.03, q ~ 0.3-0.5 for enterprise hardware.
    """

    p: float = 0.02
    q: float = 0.4

    def __post_init__(self) -> None:
        if self.p <= 0 or self.q < 0:
            raise ModelError("Bass p must be positive and q non-negative")

    def cumulative_fraction(self, years_since_intro: float) -> float:
        """Installed-base fraction ``F(t)`` after ``years_since_intro``."""
        if years_since_intro < 0:
            return 0.0
        p, q = self.p, self.q
        expo = math.exp(-(p + q) * years_since_intro)
        return (1.0 - expo) / (1.0 + (q / p) * expo)

    def years_to_fraction(self, fraction: float) -> float:
        """Years from introduction until ``fraction`` adoption."""
        if not 0.0 < fraction < 1.0:
            raise ModelError("fraction must be in (0, 1)")
        p, q = self.p, self.q
        # Closed form of the inverse of F(t).
        numerator = 1.0 - fraction
        denominator = 1.0 + (q / p) * fraction
        return -math.log(numerator / denominator) / (p + q)


@dataclass(frozen=True)
class LogisticModel:
    """Symmetric logistic S-curve with midpoint and steepness."""

    midpoint_years: float = 6.0
    steepness: float = 0.8

    def __post_init__(self) -> None:
        if self.midpoint_years <= 0 or self.steepness <= 0:
            raise ModelError("midpoint and steepness must be positive")

    def cumulative_fraction(self, years_since_intro: float) -> float:
        """Adoption fraction after ``years_since_intro``."""
        if years_since_intro < 0:
            return 0.0
        return 1.0 / (
            1.0
            + math.exp(-self.steepness * (years_since_intro - self.midpoint_years))
        )

    def years_to_fraction(self, fraction: float) -> float:
        """Years from introduction until ``fraction`` adoption."""
        if not 0.0 < fraction < 1.0:
            raise ModelError("fraction must be in (0, 1)")
        return self.midpoint_years - math.log(1.0 / fraction - 1.0) / self.steepness


@dataclass(frozen=True)
class TrlSchedule:
    """TRL progression under a given investment intensity.

    ``base_years_per_level`` is the unfunded pace; ``acceleration`` is
    the speed-up factor coordinated EU investment buys (the roadmap's
    whole argument is that this factor exceeds 1).
    """

    base_years_per_level: float = 2.0
    acceleration: float = 1.0

    def __post_init__(self) -> None:
        if self.base_years_per_level <= 0:
            raise ModelError("pace must be positive")
        if self.acceleration < 1.0:
            raise ModelError("acceleration cannot be below 1")

    def years_to_trl(self, current: int, target: int) -> float:
        """Years to move from TRL ``current`` to ``target``."""
        for value in (current, target):
            if not 1 <= value <= 9:
                raise ModelError("TRL must be 1-9")
        if target <= current:
            return 0.0
        steps = target - current
        # Later levels take longer (integration and demonstration cost).
        weighted = sum(
            1.0 + 0.15 * (current + i - 1) for i in range(1, steps + 1)
        )
        return weighted * self.base_years_per_level / self.acceleration

    def maturity_year(self, current: int, start_year: int = 2016) -> float:
        """Calendar year at which TRL 9 is reached."""
        return start_year + self.years_to_trl(current, 9)


def commodity_year_forecast(
    trl_2016: int,
    investment_acceleration: float = 1.0,
    adoption: Optional[BassModel] = None,
    commodity_fraction: float = 0.3,
    start_year: int = 2016,
) -> float:
    """Forecast the year a technology reaches commodity adoption.

    Pipeline: TRL ramp to 9 (market introduction), then Bass diffusion to
    ``commodity_fraction`` of the addressable market.
    """
    schedule = TrlSchedule(acceleration=investment_acceleration)
    intro = schedule.maturity_year(trl_2016, start_year)
    model = adoption or BassModel()
    return intro + model.years_to_fraction(commodity_fraction)
