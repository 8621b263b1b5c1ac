"""Tests for ROI / NPV / accelerator-adoption models."""

import pytest

from repro.econ import (
    AcceleratorInvestment,
    breakeven_speedup,
    breakeven_utilization,
    npv,
)
from repro.errors import ModelError


class TestNpv:
    def test_zero_rate_is_sum(self):
        assert npv([-100, 60, 60], 0.0) == pytest.approx(20.0)

    def test_discounting_shrinks_future(self):
        assert npv([-100, 110], 0.10) == pytest.approx(0.0)

    def test_bad_rate_rejected(self):
        with pytest.raises(ModelError):
            npv([1.0], -1.5)


def _investment(**overrides) -> AcceleratorInvestment:
    defaults = dict(
        hardware_usd=10_000.0,
        port_effort_person_months=6.0,
        speedup=5.0,
        baseline_compute_value_usd_per_year=200_000.0,
        utilization=0.6,
    )
    defaults.update(overrides)
    return AcceleratorInvestment(**defaults)


class TestAcceleratorInvestment:
    def test_upfront_includes_port_cost(self):
        inv = _investment()
        assert inv.upfront_cost_usd == pytest.approx(10_000 + 6 * 12_000)

    def test_speedup_one_has_no_benefit(self):
        assert _investment(speedup=1.0).annual_benefit_usd == 0.0

    def test_benefit_grows_with_speedup(self):
        slow = _investment(speedup=2.0).annual_benefit_usd
        fast = _investment(speedup=10.0).annual_benefit_usd
        assert fast > slow

    def test_benefit_saturates(self):
        # 1 - 1/k saturates at 1: benefit can never exceed utilization * baseline.
        inv = _investment(speedup=1e9)
        assert inv.annual_benefit_usd <= 0.6 * 200_000 + 1e-6

    def test_good_case_is_worthwhile(self):
        inv = _investment(speedup=10.0, utilization=0.8)
        assert inv.worthwhile()

    def test_low_utilization_kills_roi(self):
        # The paper's SME situation: high power, low utilization.
        inv = _investment(
            speedup=3.0,
            utilization=0.03,
            hardware_usd=50_000.0,
            port_effort_person_months=12.0,
        )
        assert not inv.worthwhile()

    def test_energy_cost_scales_with_utilization(self):
        low = _investment(utilization=0.1).annual_energy_cost_usd
        high = _investment(utilization=0.9).annual_energy_cost_usd
        assert high == pytest.approx(9 * low)

    def test_invalid_parameters(self):
        with pytest.raises(ModelError):
            _investment(speedup=0.0)
        with pytest.raises(ModelError):
            _investment(utilization=1.2)
        with pytest.raises(ModelError):
            _investment(horizon_years=0)

    def test_roi_sign_matches_npv_at_zero_discount(self):
        inv = _investment(discount_rate=0.0, speedup=8.0, utilization=0.7)
        assert (inv.roi() > 0) == (inv.npv_usd() > inv.upfront_cost_usd * 0 and inv.npv_usd() > 0)


class TestBreakevens:
    def test_breakeven_utilization_found(self):
        inv = _investment(speedup=5.0)
        u_star = breakeven_utilization(inv)
        assert u_star is not None
        assert 0.0 < u_star < 1.0
        from dataclasses import replace

        assert replace(inv, utilization=u_star + 0.05).npv_usd() > 0
        assert replace(inv, utilization=max(0.0, u_star - 0.05)).npv_usd() < 0

    def test_breakeven_utilization_none_when_hopeless(self):
        inv = _investment(
            speedup=1.2,
            hardware_usd=500_000.0,
            baseline_compute_value_usd_per_year=50_000.0,
        )
        assert breakeven_utilization(inv) is None

    def test_breakeven_utilization_zero_when_always_good(self):
        # Zero hardware and port cost: any utilization > 0 is profitable,
        # and the bisection converges to ~0.
        inv = _investment(hardware_usd=0.0, port_effort_person_months=0.0,
                          accelerator_power_w=0.0)
        u_star = breakeven_utilization(inv)
        assert u_star is not None and u_star < 0.01

    def test_breakeven_speedup_found(self):
        inv = _investment(speedup=1.0, utilization=0.6)
        k_star = breakeven_speedup(inv)
        assert k_star is not None and k_star > 1.0
        from dataclasses import replace

        assert replace(inv, speedup=k_star * 1.1).npv_usd() > 0

    def test_breakeven_speedup_none_when_hopeless(self):
        inv = _investment(
            utilization=0.01, baseline_compute_value_usd_per_year=1_000.0
        )
        assert breakeven_speedup(inv) is None
