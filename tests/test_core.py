"""Tests for technology catalog, adoption models, recommendations and
portfolio prioritization."""

import pytest

from repro.core import (
    BassModel,
    LogisticModel,
    RECOMMENDATIONS,
    StackLayer,
    TECHNOLOGY_CATALOG,
    TrlSchedule,
    build_roadmap,
    commodity_year_forecast,
    forecast_milestones,
    get_technology,
    greedy_portfolio,
    optimize_portfolio,
    score_all,
)
from repro.errors import ModelError
from repro.survey import generate_corpus


class TestTechnologyCatalog:
    def test_all_layers_populated(self):
        layers = {t.layer for t in TECHNOLOGY_CATALOG.values()}
        assert layers == set(StackLayer)

    def test_key_technologies_present(self):
        for name in ("400gbe", "fpga-accel", "neuromorphic", "sip-chiplets",
                     "sdn", "hls-tools"):
            assert name in TECHNOLOGY_CATALOG

    def test_neuromorphic_is_riskiest_node_tech(self):
        neuro = get_technology("neuromorphic")
        node_techs = [t for t in TECHNOLOGY_CATALOG.values()
                      if t.layer == StackLayer.NODE]
        assert neuro.risk == max(t.risk for t in node_techs)

    def test_unknown_technology_rejected(self):
        with pytest.raises(ModelError):
            get_technology("warp-drive")

    def test_trl_bounds_enforced(self):
        from repro.core.technology import Technology

        with pytest.raises(ModelError):
            Technology("bad", StackLayer.NODE, 0, 2020, 0.5, 0.5)
        with pytest.raises(ModelError):
            Technology("bad", StackLayer.NODE, 5, 2020, 1.5, 0.5)


class TestAdoptionModels:
    def test_bass_monotone_and_bounded(self):
        model = BassModel()
        fractions = [model.cumulative_fraction(t) for t in range(0, 30)]
        assert fractions == sorted(fractions)
        assert all(0.0 <= f < 1.0 for f in fractions)

    def test_bass_inverse_consistent(self):
        model = BassModel(p=0.03, q=0.38)
        years = model.years_to_fraction(0.5)
        assert model.cumulative_fraction(years) == pytest.approx(0.5, abs=1e-9)

    def test_bass_peak_positive_when_imitation_dominates(self):
        assert BassModel(p=0.02, q=0.4).peak_adoption_year() > 0

    def test_logistic_midpoint(self):
        model = LogisticModel(midpoint_years=5.0)
        assert model.cumulative_fraction(5.0) == pytest.approx(0.5)

    def test_logistic_inverse_consistent(self):
        model = LogisticModel()
        years = model.years_to_fraction(0.8)
        assert model.cumulative_fraction(years) == pytest.approx(0.8)

    def test_negative_time_is_zero(self):
        assert BassModel().cumulative_fraction(-1.0) == 0.0
        assert LogisticModel().cumulative_fraction(-1.0) == 0.0

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ModelError):
            BassModel().years_to_fraction(0.0)
        with pytest.raises(ModelError):
            LogisticModel().years_to_fraction(1.0)

class TestTrlSchedule:
    def test_no_time_for_achieved_trl(self):
        assert TrlSchedule().years_to_trl(9, 9) == 0.0
        assert TrlSchedule().years_to_trl(7, 5) == 0.0

    def test_later_levels_cost_more(self):
        schedule = TrlSchedule()
        early = schedule.years_to_trl(2, 3)
        late = schedule.years_to_trl(8, 9)
        assert late > early

    def test_investment_accelerates(self):
        slow = TrlSchedule(acceleration=1.0).years_to_trl(3, 9)
        fast = TrlSchedule(acceleration=2.0).years_to_trl(3, 9)
        assert fast == pytest.approx(slow / 2)

    def test_trl_validation(self):
        with pytest.raises(ModelError):
            TrlSchedule().years_to_trl(0, 9)
        with pytest.raises(ModelError):
            TrlSchedule(acceleration=0.5)

    def test_commodity_forecast_later_for_lower_trl(self):
        mature = commodity_year_forecast(8)
        immature = commodity_year_forecast(3)
        assert immature > mature

    def test_commodity_forecast_reacts_to_investment(self):
        base = commodity_year_forecast(4, investment_acceleration=1.0)
        funded = commodity_year_forecast(4, investment_acceleration=2.0)
        assert funded < base


class TestRecommendations:
    def test_exactly_twelve(self):
        assert len(RECOMMENDATIONS) == 12
        assert [r.rec_id for r in RECOMMENDATIONS] == list(range(1, 13))

    def test_scoring_produces_valid_priorities(self):
        scored = score_all(generate_corpus())
        assert len(scored) == 12
        for item in scored:
            assert 0.0 <= item.priority <= 1.0

    def test_ranking_is_priority_descending(self):
        scored = score_all(generate_corpus())
        priorities = [s.priority for s in scored]
        assert priorities == sorted(priorities, reverse=True)

    def test_benchmarks_and_accelerators_rank_high(self):
        # E16 expected shape: R9 and R4 are evidence-rich near-term actions.
        scored = score_all(generate_corpus())
        top_half_ids = {s.recommendation.rec_id for s in scored[:6]}
        assert 9 in top_half_ids
        assert 4 in top_half_ids

    def test_neuromorphic_ranks_low(self):
        # Long-horizon, weak survey evidence: R7 should trail.
        scored = score_all(generate_corpus())
        bottom_ids = {s.recommendation.rec_id for s in scored[-4:]}
        assert 7 in bottom_ids

    def test_all_technology_links_valid(self):
        for recommendation in RECOMMENDATIONS:
            for name in recommendation.technologies:
                get_technology(name)


class TestPortfolio:
    def test_knapsack_respects_budget(self):
        scored = score_all(generate_corpus())
        portfolio = optimize_portfolio(scored, budget_meur=100.0)
        assert portfolio.total_cost_meur <= 100.0
        assert portfolio.selected

    def test_knapsack_at_least_as_good_as_greedy(self):
        scored = score_all(generate_corpus())
        for budget in (50.0, 100.0, 150.0, 250.0):
            exact = optimize_portfolio(scored, budget)
            greedy = greedy_portfolio(scored, budget)
            assert exact.total_priority >= greedy.total_priority - 1e-9

    def test_full_budget_funds_everything(self):
        scored = score_all(generate_corpus())
        total_cost = sum(s.recommendation.cost_meur for s in scored)
        portfolio = optimize_portfolio(scored, total_cost + 1)
        assert len(portfolio.selected) == 12

    def test_tiny_budget_funds_cheapest_high_value(self):
        scored = score_all(generate_corpus())
        portfolio = optimize_portfolio(scored, budget_meur=12.0)
        assert portfolio.total_cost_meur <= 12.0

    def test_invalid_budget_rejected(self):
        scored = score_all(generate_corpus())
        with pytest.raises(ModelError):
            optimize_portfolio(scored, 0.0)
        with pytest.raises(ModelError):
            greedy_portfolio(scored, -5.0)


class TestRoadmapAssembly:
    def test_build_roadmap_end_to_end(self):
        roadmap = build_roadmap(budget_meur=150.0)
        assert roadmap.findings_hold
        assert roadmap.portfolio.total_cost_meur <= 150.0
        assert len(roadmap.milestones) == len(TECHNOLOGY_CATALOG)

    def test_milestone_lookup(self):
        roadmap = build_roadmap()
        milestone = roadmap.milestone_for("400gbe")
        assert milestone.year > 2020  # the R3 claim
        with pytest.raises(ModelError):
            roadmap.milestone_for("warp-drive")

    def test_top_recommendations(self):
        roadmap = build_roadmap()
        top = roadmap.top_recommendations(3)
        assert len(top) == 3
        with pytest.raises(ModelError):
            roadmap.top_recommendations(0)

    def test_milestones_ordered_by_trl(self):
        milestones = {m.technology: m.year for m in forecast_milestones()}
        # Mature tech reaches commodity before immature tech.
        assert milestones["10-40gbe"] < milestones["neuromorphic"]
        assert milestones["sdn"] < milestones["disaggregation"]
