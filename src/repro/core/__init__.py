"""The roadmap core: technology catalog, adoption forecasting, the twelve
recommendations, portfolio prioritization, roadmap assembly, and the
crash-safe file primitives the rest of the stack builds on."""

from repro.core.adoption import (
    BassModel,
    LogisticModel,
    TrlSchedule,
    commodity_year_forecast,
)
from repro.core.atomicio import (
    atomic_open,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.core.prioritize import (
    Portfolio,
    greedy_portfolio,
    optimize_portfolio,
)
from repro.core.recommendations import (
    RECOMMENDATIONS,
    Recommendation,
    ScoredRecommendation,
    score_all,
    score_recommendation,
)
from repro.core.retrospective import (
    ACTUALS_2026,
    ActualOutcome,
    ForecastScore,
    Outcome,
    forecast_error_summary,
    hindsight_report,
    risk_calibration,
)
from repro.core.waiting_game import (
    WaitingGameConfig,
    WaitingGameResult,
    minimum_seed_for_takeoff,
    simulate_waiting_game,
)
from repro.core.scenarios import (
    ForecastDistribution,
    InvestmentImpact,
    forecast_uncertainty_table,
    investment_impact,
    monte_carlo_commodity_year,
)
from repro.core.roadmap import (
    Milestone,
    Roadmap,
    build_roadmap,
    forecast_milestones,
)
from repro.core.technology import (
    StackLayer,
    TECHNOLOGY_CATALOG,
    Technology,
    get_technology,
)

__all__ = [
    "ACTUALS_2026",
    "ActualOutcome",
    "BassModel",
    "ForecastDistribution",
    "ForecastScore",
    "InvestmentImpact",
    "LogisticModel",
    "Milestone",
    "Outcome",
    "Portfolio",
    "RECOMMENDATIONS",
    "Recommendation",
    "Roadmap",
    "ScoredRecommendation",
    "StackLayer",
    "TECHNOLOGY_CATALOG",
    "Technology",
    "TrlSchedule",
    "WaitingGameConfig",
    "WaitingGameResult",
    "atomic_open",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "build_roadmap",
    "commodity_year_forecast",
    "forecast_error_summary",
    "forecast_milestones",
    "forecast_uncertainty_table",
    "get_technology",
    "greedy_portfolio",
    "hindsight_report",
    "investment_impact",
    "minimum_seed_for_takeoff",
    "monte_carlo_commodity_year",
    "optimize_portfolio",
    "risk_calibration",
    "score_all",
    "score_recommendation",
    "simulate_waiting_game",
]
