"""Ecosystem layer: Figure 1's initiative landscape, Table 1's
consortium, and market-concentration analysis."""

from repro.ecosystem.actors import (
    ActorKind,
    CONSORTIUM,
    ConsortiumPartner,
    INITIATIVE_CATALOG,
    Initiative,
    ScopeArea,
)
from repro.ecosystem.collaboration import (
    REQUIRED_CAPABILITIES,
    consortium_balance,
    consortium_coverage,
    coverage_matrix,
    exclusive_scopes,
    landscape_graph,
    overlap_pairs,
    uncovered_scopes,
)
from repro.ecosystem.entry import (
    MarketEntryPlan,
    eu_fpga_entrant,
    subsidy_sensitivity,
)
from repro.ecosystem.market import (
    MARKETS_2016,
    MarketShare,
    concentration_report,
    concentration_scenarios,
    lock_in_premium,
)

__all__ = [
    "ActorKind",
    "CONSORTIUM",
    "ConsortiumPartner",
    "INITIATIVE_CATALOG",
    "Initiative",
    "MARKETS_2016",
    "MarketEntryPlan",
    "MarketShare",
    "REQUIRED_CAPABILITIES",
    "ScopeArea",
    "concentration_report",
    "concentration_scenarios",
    "consortium_balance",
    "consortium_coverage",
    "coverage_matrix",
    "eu_fpga_entrant",
    "exclusive_scopes",
    "landscape_graph",
    "lock_in_premium",
    "overlap_pairs",
    "subsidy_sensitivity",
    "uncovered_scopes",
]
