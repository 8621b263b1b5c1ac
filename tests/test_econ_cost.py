"""Tests for TCO building blocks."""

import pytest

from repro import units
from repro.econ import EnergyPrice, TcoBreakdown, learning_curve_price, server_tco
from repro.errors import ModelError


class TestCostItems:
    def test_breakdown_totals(self):
        tco = TcoBreakdown()
        tco.add("purchase", 1000.0, "capex")
        tco.add("energy", 300.0, "opex")
        tco.add("maintenance", 200.0, "opex")
        assert tco.capex_usd == 1000.0
        assert tco.opex_usd == 500.0
        assert tco.total_usd == 1500.0

    def test_by_label_merges_duplicates(self):
        tco = TcoBreakdown()
        tco.add("energy", 100.0, "opex")
        tco.add("energy", 50.0, "opex")
        assert tco.by_label() == {"energy": 150.0}

    def test_bad_category_rejected(self):
        with pytest.raises(ModelError):
            TcoBreakdown().add("x", 1.0, "magic")

    def test_negative_amount_rejected(self):
        with pytest.raises(ModelError):
            TcoBreakdown().add("x", -1.0, "capex")


class TestEnergyPrice:
    def test_one_kw_for_one_hour(self):
        price = EnergyPrice(usd_per_kwh=0.10, pue=1.0)
        assert price.cost_usd(1000.0, 3_600.0) == pytest.approx(0.10)

    def test_pue_multiplies_cost(self):
        base = EnergyPrice(usd_per_kwh=0.10, pue=1.0)
        dc = EnergyPrice(usd_per_kwh=0.10, pue=1.5)
        assert dc.cost_usd(500, units.DAY) == pytest.approx(
            1.5 * base.cost_usd(500, units.DAY)
        )

    def test_pue_below_one_rejected(self):
        with pytest.raises(ModelError):
            EnergyPrice(pue=0.9)

    def test_negative_power_rejected(self):
        with pytest.raises(ModelError):
            EnergyPrice().cost_usd(-1.0, 10.0)


class TestServerTco:
    def test_components_present(self):
        tco = server_tco(5000.0, 300.0, horizon_years=3)
        labels = tco.by_label()
        assert labels["purchase"] == 5000.0
        assert labels["maintenance"] == pytest.approx(1500.0)
        assert labels["energy"] > 0

    def test_energy_scales_with_utilization(self):
        full = server_tco(5000.0, 300.0, 3, utilization=1.0).by_label()["energy"]
        half = server_tco(5000.0, 300.0, 3, utilization=0.5).by_label()["energy"]
        assert half == pytest.approx(full / 2)

    def test_admin_cost_optional(self):
        with_admin = server_tco(1000.0, 100.0, 2, admin_usd_per_year=500.0)
        assert with_admin.by_label()["administration"] == 1000.0
        without = server_tco(1000.0, 100.0, 2)
        assert "administration" not in without.by_label()

    def test_bad_horizon_rejected(self):
        with pytest.raises(ModelError):
            server_tco(1000.0, 100.0, 0.0)

    def test_bad_utilization_rejected(self):
        with pytest.raises(ModelError):
            server_tco(1000.0, 100.0, 1.0, utilization=1.5)


class TestLearningCurve:
    def test_first_unit_price(self):
        assert learning_curve_price(100.0, 1) == pytest.approx(100.0)

    def test_doubling_applies_rate(self):
        assert learning_curve_price(100.0, 2, learning_rate=0.85) == pytest.approx(85.0)
        assert learning_curve_price(100.0, 4, learning_rate=0.85) == pytest.approx(
            100 * 0.85**2
        )

    def test_price_monotone_decreasing(self):
        prices = [learning_curve_price(100.0, v) for v in (1, 10, 100, 1000)]
        assert prices == sorted(prices, reverse=True)

    def test_invalid_args(self):
        with pytest.raises(ModelError):
            learning_curve_price(100.0, 0.5)
        with pytest.raises(ModelError):
            learning_curve_price(100.0, 10, learning_rate=0.0)
        with pytest.raises(ModelError):
            learning_curve_price(-1.0, 10)
