"""Stakeholder survey substrate: calibrated synthetic corpus + analysis.

Reproduces §V.A: 89 interviews / 70 companies whose aggregate statistics
support the roadmap's four Key Findings.
"""

from repro.survey.analysis import (
    Finding,
    corpus_theme_statistics,
    cross_tab,
    finding_1_value_focus,
    finding_2_roi_skepticism,
    finding_3_disconnect,
    finding_4_no_roadmap,
    headline_counts,
    key_findings,
    sector_mix,
    theme_fraction,
)
from repro.survey.corpus import SECTOR_WEIGHTS, generate_corpus
from repro.survey.stakeholder import (
    ALL_THEMES,
    Company,
    CompanyRole,
    CompanySize,
    Corpus,
    Interview,
    Sector,
    THEME_ACCELERATOR_USER,
    THEME_BOTTLENECK_AWARE,
    THEME_HW_SW_DISCONNECT,
    THEME_LOCK_IN_FEAR,
    THEME_NO_HW_ROADMAP,
    THEME_PRICE_SENSITIVE,
    THEME_ROI_SKEPTICISM,
    THEME_VALUE_FOCUS,
    THEME_WAIT_FOR_COMMODITY,
    THEME_WANTS_BENCHMARKS,
)

__all__ = [
    "ALL_THEMES",
    "Company",
    "CompanyRole",
    "CompanySize",
    "Corpus",
    "Finding",
    "Interview",
    "SECTOR_WEIGHTS",
    "Sector",
    "THEME_ACCELERATOR_USER",
    "THEME_BOTTLENECK_AWARE",
    "THEME_HW_SW_DISCONNECT",
    "THEME_LOCK_IN_FEAR",
    "THEME_NO_HW_ROADMAP",
    "THEME_PRICE_SENSITIVE",
    "THEME_ROI_SKEPTICISM",
    "THEME_VALUE_FOCUS",
    "THEME_WAIT_FOR_COMMODITY",
    "THEME_WANTS_BENCHMARKS",
    "corpus_theme_statistics",
    "cross_tab",
    "finding_1_value_focus",
    "finding_2_roi_skepticism",
    "finding_3_disconnect",
    "finding_4_no_roadmap",
    "generate_corpus",
    "headline_counts",
    "key_findings",
    "sector_mix",
    "theme_fraction",
]
