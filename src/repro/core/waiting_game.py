"""The wait-for-commodity coordination game (Finding 2 / R1 / R4).

Finding 2 reports that European companies "prefer to wait until new
technologies became widely adopted inexpensive commodities". But
commodity pricing follows a learning curve: the price only falls when
someone buys. If every firm waits, cumulative volume never grows, the
price never drops, and adoption stalls -- a coordination failure.

This module simulates that game: firms with heterogeneous
willingness-to-pay face a Wright's-law price; each round, firms whose
threshold exceeds the current price adopt, adding volume and cutting the
price for the rest. EU-funded *seed deployments* (R1's "connect these
companies to end users", R4's pilot projects) inject initial volume --
and a small seed can flip a stalled market into a full cascade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.econ.cost import learning_curve_price
from repro.engine.randomness import RandomStream
from repro.errors import ModelError


@dataclass(frozen=True)
class WaitingGameConfig:
    """Market parameters for the adoption game.

    ``launch_price_usd``: price at the existing ``base_volume_units``
    (the volume already shipped to early/US/hyperscale buyers -- the
    learning curve is only steep relative to this base, so EU seed
    volume must be *material against it* to move prices).
    ``learning_rate``: price multiplier per volume doubling (0.8 = -20%).
    ``wtp_median_usd`` / ``wtp_sigma``: lognormal willingness-to-pay
    across the firm population (most firms only pay commodity prices --
    Finding 2's price sensitivity).
    ``units_per_adopter``: volume each adopting firm contributes.
    """

    n_firms: int = 200
    launch_price_usd: float = 50_000.0
    base_volume_units: float = 10_000.0
    learning_rate: float = 0.8
    wtp_median_usd: float = 15_000.0
    wtp_sigma: float = 0.35
    units_per_adopter: float = 4_000.0
    max_rounds: int = 40

    def __post_init__(self) -> None:
        if self.n_firms < 1:
            raise ModelError("need at least one firm")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ModelError("learning rate must be in (0, 1]")
        if min(self.launch_price_usd, self.wtp_median_usd,
               self.units_per_adopter, self.base_volume_units) <= 0:
            raise ModelError("prices and volumes must be positive")
        if self.max_rounds < 1:
            raise ModelError("need at least one round")

    def price_at(self, extra_units: float) -> float:
        """Wright's-law price after ``extra_units`` beyond the base."""
        if extra_units < 0:
            raise ModelError("extra volume cannot be negative")
        relative = (self.base_volume_units + extra_units) / self.base_volume_units
        return learning_curve_price(
            self.launch_price_usd, relative, self.learning_rate
        )


@dataclass
class WaitingGameResult:
    """Outcome of one simulated market."""

    adoption_by_round: List[int]  # cumulative adopters after each round
    price_by_round: List[float]
    seed_units: float
    n_firms: int

    @property
    def final_adoption_fraction(self) -> float:
        """Share of firms that adopted by the end."""
        return self.adoption_by_round[-1] / self.n_firms

    @property
    def stalled(self) -> bool:
        """Whether adoption froze before reaching half the market."""
        return self.adoption_by_round[-1] < 0.5 * self.n_firms


def simulate_waiting_game(
    config: WaitingGameConfig = WaitingGameConfig(),
    seed_units: float = 0.0,
    rng_seed: int = 71,
) -> WaitingGameResult:
    """Run the adoption cascade with ``seed_units`` of subsidized volume.

    Each round the price reflects cumulative volume (seed + adopters);
    every firm whose willingness-to-pay meets the price adopts. The game
    ends when a round adds no adopters or ``max_rounds`` elapse.
    """
    if seed_units < 0:
        raise ModelError("seed volume cannot be negative")
    rng = RandomStream(rng_seed, "wtp")
    thresholds = sorted(
        (
            rng.lognormal(config.wtp_median_usd, config.wtp_sigma)
            for _ in range(config.n_firms)
        ),
        reverse=True,
    )
    adopted = 0
    adoption_history: List[int] = []
    price_history: List[float] = []
    for _ in range(config.max_rounds):
        extra = seed_units + adopted * config.units_per_adopter
        price = config.price_at(extra)
        price_history.append(price)
        new_adopters = 0
        while adopted + new_adopters < config.n_firms and (
            thresholds[adopted + new_adopters] >= price
        ):
            new_adopters += 1
        adopted += new_adopters
        adoption_history.append(adopted)
        if new_adopters == 0:
            break
    result = WaitingGameResult(
        adoption_by_round=adoption_history,
        price_by_round=price_history,
        seed_units=seed_units,
        n_firms=config.n_firms,
    )
    return result


def minimum_seed_for_takeoff(
    config: WaitingGameConfig = WaitingGameConfig(),
    rng_seed: int = 71,
    max_seed_units: float = 1e6,
    tolerance: float = 0.02,
) -> Optional[float]:
    """Smallest seed volume that un-stalls the market.

    Returns ``None`` if the market cascades unaided (no coordination
    failure) or stays stalled even at ``max_seed_units``.
    """
    def stalled_at(seed_units: float) -> bool:
        return simulate_waiting_game(config, seed_units, rng_seed).stalled

    if not stalled_at(0.0):
        return None
    if stalled_at(max_seed_units):
        return None
    lo, hi = 1.0, max_seed_units
    if not stalled_at(lo):
        return lo
    while hi / lo > 1.0 + tolerance:
        mid = (lo * hi) ** 0.5
        if stalled_at(mid):
            lo = mid
        else:
            hi = mid
    return hi
