"""Vectorized Monte-Carlo batch-evaluation engine for the model layer.

The roadmap's quantitative claims are settled by Monte-Carlo sweeps over
the analytical models (accelerator ROI, SoC-vs-SiP economics,
commodity-year forecasts, market concentration, survey statistics).
This package evaluates N sampled parameter vectors per call with numpy
batch kernels instead of one scalar model call per sample.

Determinism contract: every kernel draws its variates in a documented
batch order from a single seeded stream and preserves the scalar
model's floating-point operation order, so batch results are bit-for-
bit equal to the frozen scalar references in :mod:`repro._modelref`
(verified by the ``models`` perf suite and the equivalence tests).

Modules: :mod:`~repro.mc.sampling` (parameter sampling),
:mod:`~repro.mc.roi` (ROI cashflow kernels), :mod:`~repro.mc.scenarios`
(commodity-year forecasts), :mod:`~repro.mc.soc_sip` (silicon cost
curves), :mod:`~repro.mc.market` (HHI / Bass adoption paths),
:mod:`~repro.mc.survey` (corpus statistics), and
:mod:`~repro.mc.traffic` (million-user traffic-scenario traces:
declarative :class:`~repro.mc.traffic.ScenarioSpec` composition,
inhomogeneous-Poisson thinning, heavy-tailed sessions, Zipf client
skew).
"""

from repro.mc.market import bass_adoption_paths, hhi_batch, sampled_market_shares
from repro.mc.roi import (
    decision_flip_batch,
    investment_params,
    npv_batch,
    npv_utilization_sweep,
    tornado_outputs_batch,
)
from repro.mc.sampling import uniform_parameter_samples
from repro.mc.scenarios import commodity_year_samples, trl_weighted_steps
from repro.mc.soc_sip import cost_per_unit_curve, die_cost_batch, sampled_unit_costs
from repro.mc.survey import theme_statistics
from repro.mc.traffic import (
    FlashCrowd,
    ScenarioSpec,
    arrival_times,
    client_ids,
    peak_rate,
    poisson_inter_arrivals,
    scenario_trace,
    session_lengths,
)

__all__ = [
    "FlashCrowd",
    "ScenarioSpec",
    "arrival_times",
    "bass_adoption_paths",
    "client_ids",
    "commodity_year_samples",
    "cost_per_unit_curve",
    "decision_flip_batch",
    "die_cost_batch",
    "hhi_batch",
    "investment_params",
    "npv_batch",
    "npv_utilization_sweep",
    "peak_rate",
    "poisson_inter_arrivals",
    "sampled_market_shares",
    "sampled_unit_costs",
    "scenario_trace",
    "session_lengths",
    "theme_statistics",
    "tornado_outputs_batch",
    "trl_weighted_steps",
    "uniform_parameter_samples",
]
