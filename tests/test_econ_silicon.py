"""Tests for silicon cost and SoC/SiP models."""

import pytest

from repro.econ import (
    PROCESS_CATALOG,
    ChipDesign,
    PackagingModel,
    Subsystem,
    die_cost_usd,
    dies_per_wafer,
    euroserver_reference_design,
    scaled_area_mm2,
    vendor_switch_nre_usd,
    yield_negative_binomial,
    yield_poisson,
)
from repro.econ.nre import ChipProject
from repro.errors import ModelError


class TestDiesPerWafer:
    def test_small_die_many_dies(self):
        assert dies_per_wafer(10.0) > 5000

    def test_larger_die_fewer_dies(self):
        assert dies_per_wafer(600.0) < dies_per_wafer(100.0)

    def test_zero_area_rejected(self):
        with pytest.raises(ModelError):
            dies_per_wafer(0.0)


class TestYield:
    def test_yield_decreases_with_area(self):
        y_small = yield_negative_binomial(50.0, 0.12)
        y_big = yield_negative_binomial(600.0, 0.12)
        assert y_small > y_big

    def test_yield_decreases_with_defect_density(self):
        assert yield_negative_binomial(100.0, 0.08) > yield_negative_binomial(
            100.0, 0.33
        )

    def test_poisson_is_lower_bound_of_nb(self):
        # Clustering helps yield: NB >= Poisson for the same defects.
        for area in (50.0, 200.0, 600.0):
            assert yield_negative_binomial(area, 0.2) >= yield_poisson(area, 0.2)

    def test_zero_defects_perfect_yield(self):
        assert yield_negative_binomial(100.0, 0.0) == pytest.approx(1.0)
        assert yield_poisson(100.0, 0.0) == pytest.approx(1.0)

    def test_yield_in_unit_interval(self):
        y = yield_negative_binomial(400.0, 0.33)
        assert 0.0 < y < 1.0

    def test_bad_alpha_rejected(self):
        with pytest.raises(ModelError):
            yield_negative_binomial(100.0, 0.1, alpha=0.0)


class TestDieCost:
    def test_cost_grows_superlinearly_with_area(self):
        node = PROCESS_CATALOG["16nm"]
        small = die_cost_usd(100.0, node)
        big = die_cost_usd(400.0, node)
        assert big > 4 * small  # yield loss makes it superlinear

    def test_leading_node_more_expensive_at_same_area(self):
        assert die_cost_usd(200.0, PROCESS_CATALOG["7nm"]) > die_cost_usd(
            200.0, PROCESS_CATALOG["28nm"]
        )

    def test_yield_model_ablation_poisson_costs_more(self):
        node = PROCESS_CATALOG["16nm"]
        nb = die_cost_usd(300.0, node, yield_model="negative_binomial")
        poisson = die_cost_usd(300.0, node, yield_model="poisson")
        assert poisson > nb

    def test_unknown_yield_model_rejected(self):
        with pytest.raises(ModelError):
            die_cost_usd(100.0, PROCESS_CATALOG["28nm"], yield_model="magic")

    def test_huge_die_rejected(self):
        with pytest.raises(ModelError):
            die_cost_usd(1e6, PROCESS_CATALOG["28nm"])

    def test_scaled_area_shrinks_on_advanced_node(self):
        area_16 = scaled_area_mm2(100.0, PROCESS_CATALOG["16nm"])
        assert area_16 == pytest.approx(40.0)


class TestChipProject:
    def test_respins_add_masks(self):
        base = ChipProject("x", PROCESS_CATALOG["16nm"], 10.0, respins=0)
        respun = ChipProject("x", PROCESS_CATALOG["16nm"], 10.0, respins=2)
        assert respun.mask_cost_usd == pytest.approx(3 * base.mask_cost_usd)

    def test_amortization(self):
        project = ChipProject("x", PROCESS_CATALOG["28nm"], 10.0)
        assert project.amortized_usd_per_unit(1e6) == pytest.approx(
            project.total_nre_usd() / 1e6
        )
        with pytest.raises(ModelError):
            project.amortized_usd_per_unit(0)


class TestVendorSwitch:
    def test_scales_with_codebase(self):
        assert vendor_switch_nre_usd(500.0) == pytest.approx(
            10 * vendor_switch_nre_usd(50.0)
        )

    def test_zero_specific_fraction_is_free(self):
        assert vendor_switch_nre_usd(100.0, fraction_device_specific=0.0) == 0.0

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ModelError):
            vendor_switch_nre_usd(100.0, fraction_device_specific=1.5)


def _design() -> ChipDesign:
    return euroserver_reference_design(
        PROCESS_CATALOG["16nm"], PROCESS_CATALOG["28nm"]
    )


class TestSocVsSip:
    def test_sip_nre_below_soc_nre(self):
        design = _design()
        assert design.sip_nre().total_nre_usd() < design.soc_nre().total_nre_usd()

    def test_sip_cheaper_at_low_volume(self):
        costs = _design().cost_per_unit_at_volume(10_000)
        assert costs["sip"] < costs["soc"]

    def test_soc_cheaper_at_hyperscale_volume(self):
        costs = _design().cost_per_unit_at_volume(50_000_000)
        assert costs["soc"] < costs["sip"]

    def test_crossover_volume_exists_and_separates(self):
        design = _design()
        v_star = design.crossover_volume()
        assert v_star is not None
        low = design.cost_per_unit_at_volume(v_star / 10)
        high = design.cost_per_unit_at_volume(v_star * 10)
        assert low["sip"] < low["soc"]
        assert high["soc"] < high["sip"]

    def test_interface_upgrade_cheaper_on_sip(self):
        # The paper: SoC interface changes require a costly full redesign.
        costs = _design().interface_upgrade_cost_usd("network-io")
        assert costs["sip"] < costs["soc"]

    def test_unknown_subsystem_rejected(self):
        with pytest.raises(ModelError):
            _design().interface_upgrade_cost_usd("quantum-unit")

    def test_empty_design_rejected(self):
        with pytest.raises(ModelError):
            ChipDesign(
                "x", [], PROCESS_CATALOG["16nm"], PROCESS_CATALOG["28nm"]
            )

    def test_node_ordering_enforced(self):
        with pytest.raises(ModelError):
            ChipDesign(
                "x",
                [Subsystem("a", 10.0, 1.0)],
                leading_node=PROCESS_CATALOG["28nm"],
                commodity_node=PROCESS_CATALOG["16nm"],
            )

    def test_packaging_yield_penalizes_many_chiplets(self):
        pack = PackagingModel(assembly_yield=0.95)
        assert pack.package_yield(8) < pack.package_yield(2)

    def test_packaging_cost_linear_in_chiplets(self):
        pack = PackagingModel(base_usd=10.0, per_chiplet_usd=5.0)
        assert pack.cost_usd(4) == pytest.approx(30.0)
