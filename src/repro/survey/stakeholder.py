"""Stakeholder models for the interview corpus.

The roadmap's evidence base is "89 in-depth interviews with key
stakeholders from more than 70 distinct European companies ... from
telecommunications, hardware design and manufacturers as well as strong
representation from health, automotive, financial and analytics sectors".
This module defines the company and interview records that the corpus
generator instantiates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

from repro.errors import ModelError


class Sector(enum.Enum):
    """Industry sectors the paper names."""

    TELECOM = "telecom"
    HARDWARE = "hardware"
    HEALTH = "health"
    AUTOMOTIVE = "automotive"
    FINANCIAL = "financial"
    ANALYTICS = "analytics"


class CompanySize(enum.Enum):
    """EU company size classes."""

    SME = "sme"
    LARGE = "large"


class CompanyRole(enum.Enum):
    """Position in the value chain (the Finding-3 fragmentation axis)."""

    TECHNOLOGY_PROVIDER = "technology_provider"
    ANALYTICS_VENDOR = "analytics_vendor"
    END_USER = "end_user"


#: Interview theme codes (the qualitative-coding vocabulary).
THEME_VALUE_FOCUS = "value-extraction-focus"
THEME_BOTTLENECK_AWARE = "bottleneck-aware"
THEME_NO_HW_ROADMAP = "no-hardware-roadmap"
THEME_ROI_SKEPTICISM = "roi-skepticism"
THEME_WAIT_FOR_COMMODITY = "wait-for-commodity"
THEME_PRICE_SENSITIVE = "price-sensitive"
THEME_LOCK_IN_FEAR = "vendor-lock-in-fear"
THEME_WANTS_BENCHMARKS = "wants-standard-benchmarks"
THEME_HW_SW_DISCONNECT = "hw-sw-disconnect"
THEME_ACCELERATOR_USER = "accelerator-user"

ALL_THEMES = (
    THEME_VALUE_FOCUS,
    THEME_BOTTLENECK_AWARE,
    THEME_NO_HW_ROADMAP,
    THEME_ROI_SKEPTICISM,
    THEME_WAIT_FOR_COMMODITY,
    THEME_PRICE_SENSITIVE,
    THEME_LOCK_IN_FEAR,
    THEME_WANTS_BENCHMARKS,
    THEME_HW_SW_DISCONNECT,
    THEME_ACCELERATOR_USER,
)


@dataclass(frozen=True)
class Company:
    """One interviewed organization."""

    company_id: str
    sector: Sector
    size: CompanySize
    role: CompanyRole
    has_hardware_roadmap: bool
    data_volume_tb: float

    def __post_init__(self) -> None:
        if self.data_volume_tb < 0:
            raise ModelError(f"{self.company_id}: negative data volume")


@dataclass(frozen=True)
class Interview:
    """One coded interview transcript."""

    interview_id: str
    company_id: str
    themes: tuple

    def __post_init__(self) -> None:
        if not self.themes:
            raise ModelError(f"{self.interview_id}: no coded themes")
        unknown = set(self.themes) - set(ALL_THEMES)
        if unknown:
            raise ModelError(
                f"{self.interview_id}: unknown themes {sorted(unknown)}"
            )

    def expresses(self, theme: str) -> bool:
        """Whether the interview was coded with ``theme``."""
        return theme in self.themes


@dataclass
class Corpus:
    """The full interview corpus."""

    companies: List[Company] = field(default_factory=list)
    interviews: List[Interview] = field(default_factory=list)

    def validate(self) -> None:
        """Referential integrity plus the paper's headline counts."""
        if not self.companies or not self.interviews:
            raise ModelError("corpus must contain companies and interviews")
        ids = {c.company_id for c in self.companies}
        if len(ids) != len(self.companies):
            raise ModelError("duplicate company ids")
        for interview in self.interviews:
            if interview.company_id not in ids:
                raise ModelError(
                    f"interview {interview.interview_id}: unknown company"
                )

    @property
    def n_companies(self) -> int:
        """Distinct companies interviewed."""
        return len(self.companies)

    @property
    def n_interviews(self) -> int:
        """Total interviews conducted."""
        return len(self.interviews)
