"""Batch-vs-reference equivalence for the ``repro.mc`` model engine.

Every batch kernel must reproduce the frozen scalar references in
:mod:`repro._modelref` bit for bit across seeds, and agree with the live
scalar models it replaced. The one documented exception is
``sampled_unit_costs``: numpy's vectorized SIMD ``pow`` differs from the
scalar libm ``pow`` by 1 ULP in the negative-binomial yield term, so
that kernel is pinned at 1e-12 relative instead (see
:mod:`repro.mc.soc_sip`).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import _modelref, mc
from repro.core import BassModel
from repro.econ import (
    AcceleratorInvestment,
    PROCESS_CATALOG,
    default_accelerator_ranges,
    euroserver_reference_design,
)
from repro.ecosystem import MARKETS_2016, concentration_scenarios
from repro.errors import ModelError
from repro.survey import ALL_THEMES, generate_corpus

SEEDS = [0, 1, 2]

SCENARIO_GRID = [
    (4, 0.35, 1.5),   # mid-TRL, moderate risk (the E1/E16 shape)
    (2, 0.70, 1.0),   # early, risky, unaccelerated
    (8, 0.10, 2.5),   # nearly mature, heavily accelerated
]


class TestScenarioEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("trl,risk,acceleration", SCENARIO_GRID)
    def test_commodity_year_bit_exact(self, seed, trl, risk, acceleration):
        batch = mc.commodity_year_samples(
            trl, risk, acceleration, n_samples=400, seed=seed
        )
        reference = _modelref.reference_commodity_year_samples(
            trl, risk, acceleration, 400, seed
        )
        assert batch.tobytes() == reference.tobytes()

    def test_mature_technology_has_no_trl_delay(self):
        batch = mc.commodity_year_samples(9, 0.05, 1.0, n_samples=50, seed=0)
        reference = _modelref.reference_commodity_year_samples(
            9, 0.05, 1.0, 50, 0
        )
        assert batch.tobytes() == reference.tobytes()
        assert mc.trl_weighted_steps(9) == 0.0

    def test_validation(self):
        with pytest.raises(ModelError, match="at least 10 samples"):
            mc.commodity_year_samples(4, 0.3, n_samples=5)
        with pytest.raises(ModelError, match="below 1"):
            mc.commodity_year_samples(4, 0.3, investment_acceleration=0.5)
        with pytest.raises(ModelError):
            mc.trl_weighted_steps(0)
        with pytest.raises(ModelError):
            mc.trl_weighted_steps(10)


class TestRoiEquivalence:
    @staticmethod
    def _params(seed, n_samples=200):
        return mc.uniform_parameter_samples(
            default_accelerator_ranges(), n_samples, seed
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_npv_bit_exact(self, seed):
        params = self._params(seed)
        batch = mc.npv_batch(params)
        reference = _modelref.reference_npv_sweep(params, 200, 3)
        assert batch.tobytes() == reference.tobytes()

    def test_edge_parameters(self):
        # Zero utilization and unit speedup: no freed capacity, no
        # benefit -- the batch kernel must hit the same degenerate path.
        params = {
            "hardware_usd": np.array([20_000.0, 0.0, 50_000.0]),
            "utilization": np.array([0.0, 0.5, 1.0]),
            "speedup": np.array([4.0, 1.0, 10.0]),
        }
        batch = mc.npv_batch(params)
        reference = _modelref.reference_npv_sweep(params, 3, 3)
        assert batch.tobytes() == reference.tobytes()

    def test_scalar_only_parameters_rejected(self):
        with pytest.raises(ModelError, match="must be a scalar"):
            mc.npv_batch({"discount_rate": np.array([0.05, 0.08])})


class TestRoiLiveAgreement:
    """The batch kernels agree bitwise with the live scalar ROI model."""

    @staticmethod
    def _investment():
        return AcceleratorInvestment(
            hardware_usd=20_000.0, port_effort_person_months=6.0,
            speedup=4.0, utilization=0.4,
            baseline_compute_value_usd_per_year=200_000.0,
        )

    def test_utilization_sweep_matches_replace_loop(self):
        investment = self._investment()
        utilizations = [0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9, 1.0]
        swept = mc.npv_utilization_sweep(investment, utilizations)
        for value, utilization in zip(swept, utilizations):
            assert float(value) == replace(
                investment, utilization=utilization
            ).npv_usd()

    def test_tornado_unknown_parameter_rejected(self):
        from repro.econ import SensitivityRange, decision_flips, tornado

        ranges = [SensitivityRange("warp_factor", 0, 1)]
        with pytest.raises(ModelError, match="unknown parameter"):
            tornado(self._investment(), ranges)
        with pytest.raises(ModelError, match="unknown parameter"):
            decision_flips(self._investment(), ranges)


class TestSocSipEquivalence:
    @staticmethod
    def _design():
        return euroserver_reference_design(
            PROCESS_CATALOG["16nm"], PROCESS_CATALOG["28nm"]
        )

    def test_cost_curve_bit_exact(self):
        design = self._design()
        volumes = [1e4, 1e5, 1e6, 1e7, 1e8]
        soc, sip = mc.cost_per_unit_curve(design, volumes)
        ref_soc, ref_sip = _modelref.reference_cost_per_unit_curve(
            design, volumes
        )
        assert soc.tobytes() == ref_soc.tobytes()
        assert sip.tobytes() == ref_sip.tobytes()

    def test_cost_curve_matches_live_model(self):
        design = self._design()
        volumes = [1e4, 1e6, 1e8]
        soc, sip = mc.cost_per_unit_curve(design, volumes)
        for i, volume in enumerate(volumes):
            live = design.cost_per_unit_at_volume(volume)
            assert float(soc[i]) == live["soc"]
            assert float(sip[i]) == live["sip"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sampled_costs_within_documented_tolerance(self, seed):
        # 1e-12 relative, not bit-for-bit: numpy's SIMD pow vs libm pow
        # differ by 1 ULP in the yield term (documented in mc.soc_sip).
        design = self._design()
        soc, sip = mc.sampled_unit_costs(design, 0.2, 300, seed)
        ref_soc, ref_sip = _modelref.reference_sampled_unit_costs(
            design, 0.2, 300, seed
        )
        assert np.allclose(soc, ref_soc, rtol=1e-12, atol=0.0)
        assert np.allclose(sip, ref_sip, rtol=1e-12, atol=0.0)

    def test_vanishing_yield_rejected(self):
        with pytest.raises(ModelError):
            mc.die_cost_batch(np.array([800.0]), 8_000.0, 5_000.0)


class TestMarketEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sampled_shares_bit_exact(self, seed):
        shares = [0.55, 0.12, 0.10, 0.08, 0.15]
        batch = mc.sampled_market_shares(shares, 0.3, 200, seed)
        reference = _modelref.reference_sampled_market_shares(
            shares, 0.3, 200, seed
        )
        assert batch.tobytes() == reference.tobytes()
        assert np.allclose(batch.sum(axis=1), 1.0)

    def test_hhi_bit_exact(self):
        sampled = mc.sampled_market_shares([0.9, 0.07, 0.03], 0.4, 100, 0)
        batch = mc.hhi_batch(sampled)
        assert batch.tobytes() == _modelref.reference_hhi(sampled).tobytes()

    def test_hhi_matches_live_market_model(self):
        market = MARKETS_2016["gpgpu-top500"]
        row = np.array([[share for share in market.shares.values()]])
        assert float(mc.hhi_batch(row)[0]) == pytest.approx(
            market.hhi(), rel=1e-12
        )

    def test_adoption_paths_bit_exact(self):
        q_values = np.linspace(0.1, 0.9, 40)
        t_grid = np.linspace(-3.0, 20.0, 60)
        batch = mc.bass_adoption_paths(0.03, q_values, t_grid)
        reference = _modelref.reference_adoption_paths(0.03, q_values, t_grid)
        assert batch.tobytes() == reference.tobytes()

    def test_adoption_paths_match_live_bass_model(self):
        q_values = np.array([0.25, 0.6])
        t_grid = np.array([-1.0, 0.0, 2.5, 10.0])
        batch = mc.bass_adoption_paths(0.03, q_values, t_grid)
        for i, q in enumerate(q_values):
            model = BassModel(p=0.03, q=float(q))
            for j, t in enumerate(t_grid):
                assert batch[i, j] == pytest.approx(
                    model.cumulative_fraction(float(t)), rel=1e-12, abs=1e-15
                )

    def test_concentration_scenarios_robust_verdict(self):
        outlook = concentration_scenarios(
            MARKETS_2016["gpgpu-top500"], n_samples=1_000
        )
        assert outlook["p_highly_concentrated"] > 0.95
        assert outlook["hhi_p10"] <= outlook["hhi_p50"] <= outlook["hhi_p90"]


class TestSurveyEquivalence:
    def test_theme_statistics_exactly_match_reference(self):
        corpus = generate_corpus()
        role_by_company = {
            c.company_id: c.role.value for c in corpus.companies
        }
        themes = [i.themes for i in corpus.interviews]
        roles = [role_by_company[i.company_id] for i in corpus.interviews]
        batch = mc.theme_statistics(themes, roles, list(ALL_THEMES))
        reference = _modelref.reference_theme_statistics(
            themes, roles, list(ALL_THEMES)
        )
        assert batch == reference

    def test_duplicate_theme_rejected(self):
        with pytest.raises(ModelError):
            mc.theme_statistics([("a",)], ["user"], ["a", "a"])


class TestSamplingValidation:
    def test_empty_ranges_rejected(self):
        with pytest.raises(ModelError):
            mc.uniform_parameter_samples([], 10, 0)

    def test_duplicate_parameter_rejected(self):
        from repro.econ import SensitivityRange

        ranges = [
            SensitivityRange("speedup", 1.0, 2.0),
            SensitivityRange("speedup", 3.0, 4.0),
        ]
        with pytest.raises(ModelError):
            mc.uniform_parameter_samples(ranges, 10, 0)

    def test_zero_samples_rejected(self):
        from repro.econ import SensitivityRange

        with pytest.raises(ModelError):
            mc.uniform_parameter_samples(
                [SensitivityRange("speedup", 1.0, 2.0)], 0, 0
            )
