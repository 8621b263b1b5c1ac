"""Ethernet link generations and the bandwidth roadmap (§IV.A, R1/R3).

The roadmap frames the networking hardware lifecycle as "the quest for
increasing bandwidth": 10/40 GbE adoption today (R1), 100 GbE at the
hyperscalers, and "high-end (beyond 400 GbE) network appliances ...
available after 2020" (R3), with photonics-on-silicon integration as the
enabling technology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ModelError


@dataclass(frozen=True)
class LinkGeneration:
    """One Ethernet speed grade.

    ``volume_year`` is when the generation reached/reaches commodity
    volume; ``usd_per_port`` and ``w_per_port`` are launch-era switch-side
    figures; ``photonic`` marks generations requiring integrated silicon
    photonics (the R3 watch-item).
    """

    name: str
    rate_gbps: float
    standard_year: int
    volume_year: int
    usd_per_port: float
    w_per_port: float
    photonic: bool = False

    def __post_init__(self) -> None:
        if self.rate_gbps <= 0:
            raise ModelError(f"{self.name}: rate must be positive")
        if self.volume_year < self.standard_year:
            raise ModelError(
                f"{self.name}: volume cannot precede standardization"
            )

    @property
    def usd_per_gbps(self) -> float:
        """Launch-era cost efficiency of the generation."""
        return self.usd_per_port / self.rate_gbps

    @property
    def gbps_per_w(self) -> float:
        """Launch-era energy efficiency of the generation."""
        return self.rate_gbps / self.w_per_port


#: The Ethernet roadmap as seen from 2016 (IEEE 802.3 history + projections).
ETHERNET_ROADMAP: Dict[str, LinkGeneration] = {
    gen.name: gen
    for gen in (
        LinkGeneration("1GbE", 1.0, 1999, 2003, 10.0, 1.0),
        LinkGeneration("10GbE", 10.0, 2002, 2010, 100.0, 4.0),
        LinkGeneration("40GbE", 40.0, 2010, 2015, 300.0, 8.0),
        LinkGeneration("100GbE", 100.0, 2010, 2018, 700.0, 12.0),
        LinkGeneration("400GbE", 400.0, 2017, 2021, 2_400.0, 20.0, photonic=True),
        LinkGeneration("800GbE", 800.0, 2020, 2025, 4_800.0, 30.0, photonic=True),
    )
}


def generations_by_year() -> List[LinkGeneration]:
    """All generations ordered by volume year."""
    return sorted(ETHERNET_ROADMAP.values(), key=lambda g: g.volume_year)


def commodity_generation(year: int) -> LinkGeneration:
    """The fastest generation at commodity volume in ``year``."""
    available = [g for g in ETHERNET_ROADMAP.values() if g.volume_year <= year]
    if not available:
        raise ModelError(f"no commodity Ethernet generation by {year}")
    return max(available, key=lambda g: g.rate_gbps)


@dataclass(frozen=True)
class Link:
    """A physical link instance in a topology."""

    src: str
    dst: str
    rate_gbps: float

    def __post_init__(self) -> None:
        if self.rate_gbps <= 0:
            raise ModelError(f"link {self.src}->{self.dst}: bad rate")
        if self.src == self.dst:
            raise ModelError(f"self-loop on {self.src}")
