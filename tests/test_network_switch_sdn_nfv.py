"""Tests for switch TCO, the SDN control plane, and NFV chains."""

import pytest

from repro.engine import RandomStream
from repro.errors import ModelError, TopologyError
from repro.network import (
    FlowRule,
    FlowTable,
    LegacyManagement,
    SdnController,
    ServiceChain,
    SwitchClass,
    VnfHost,
    bare_metal_switch,
    branded_switch,
    fat_tree,
    fleet_tco_usd,
    leaf_spine,
    standard_dmz_chain,
    white_box_switch,
    FUNCTION_CATALOG,
)


class TestSwitchModels:
    def test_branded_hardware_premium(self):
        assert branded_switch().hardware_usd > 2 * white_box_switch().hardware_usd

    def test_branded_cannot_carry_separate_nos_price(self):
        from repro.network.switch import NosLicense, SwitchModel

        with pytest.raises(ModelError):
            SwitchModel(
                "bad", SwitchClass.BRANDED, 32, 40.0, 10_000.0, 100.0,
                NosLicense("x", 1000.0, 0.0),
            )

    def test_tco_has_energy_and_support(self):
        tco = branded_switch().tco(5.0)
        labels = tco.by_label()
        assert labels["energy"] > 0
        assert labels["vendor-support"] > 0

    def test_white_box_cheaper_than_branded_per_switch(self):
        assert (
            white_box_switch().tco(5.0).total_usd
            < branded_switch().tco(5.0).total_usd
        )

class TestFleetTco:
    def test_small_fleet_prefers_white_box_over_bare_metal(self):
        # A 50-switch SME cannot amortize a NOS team.
        n = 50
        assert fleet_tco_usd(white_box_switch(), n) < fleet_tco_usd(
            bare_metal_switch(), n
        )

    def test_hyperscale_fleet_prefers_bare_metal(self):
        # The Facebook case: 10,000 switches amortize the team easily.
        n = 10_000
        assert fleet_tco_usd(bare_metal_switch(), n) < fleet_tco_usd(
            white_box_switch(), n
        )

    def test_branded_always_most_expensive_at_scale(self):
        for n in (100, 1000, 10_000):
            branded = fleet_tco_usd(branded_switch(), n)
            assert branded > fleet_tco_usd(white_box_switch(), n)

    def test_zero_fleet_rejected(self):
        with pytest.raises(ModelError):
            fleet_tco_usd(branded_switch(), 0)


class TestFlowTable:
    def test_install_and_lookup_priority(self):
        table = FlowTable(capacity=10)
        table.install(FlowRule("10.0.0.0/8", "drop", priority=1))
        table.install(FlowRule("10.0.0.0/8", "fwd:p1", priority=5))
        assert table.lookup("10.0.0.0/8").action == "fwd:p1"

    def test_miss_returns_none(self):
        assert FlowTable().lookup("nope") is None

    def test_tcam_overflow(self):
        table = FlowTable(capacity=1)
        table.install(FlowRule("a", "x"))
        with pytest.raises(ModelError):
            table.install(FlowRule("b", "y"))

    def test_clear(self):
        table = FlowTable()
        table.install(FlowRule("a", "x"))
        table.clear()
        assert len(table) == 0

    def test_empty_match_rejected(self):
        with pytest.raises(ModelError):
            FlowRule("", "x")


class TestSdnController:
    def test_tables_created_for_all_switches(self):
        fabric = leaf_spine(2, 2, 2)
        controller = SdnController(fabric)
        assert set(controller.tables) == set(fabric.switches)

    def test_rollout_scales_sublinearly_with_parallelism(self):
        fabric = fat_tree(4)
        fast = SdnController(fabric, parallelism=1000)
        slow = SdnController(fabric, parallelism=1)
        assert fast.policy_rollout_s(10) < slow.policy_rollout_s(10)

    def test_rollout_constant_within_one_wave(self):
        # "10,000 switches look like one": time is flat while the fleet
        # fits in one parallel wave.
        small = SdnController(leaf_spine(2, 2, 2), parallelism=1000)
        large = SdnController(fat_tree(8), parallelism=1000)
        assert small.policy_rollout_s(10) == pytest.approx(
            large.policy_rollout_s(10)
        )

    def test_unknown_switch_rejected(self):
        controller = SdnController(leaf_spine(2, 2, 2))
        with pytest.raises(TopologyError):
            controller.table("ghost")

    def test_bad_args(self):
        with pytest.raises(ModelError):
            SdnController(leaf_spine(2, 2, 2), parallelism=0)
        controller = SdnController(leaf_spine(2, 2, 2))
        with pytest.raises(ModelError):
            controller.policy_rollout_s(0)


class TestLegacyManagement:
    def test_deterministic_expected_time(self):
        mgmt = LegacyManagement(n_admins=2, config_time_per_switch_s=100.0,
                                error_probability=0.0)
        assert mgmt.policy_rollout_s(10) == pytest.approx(500.0)

    def test_errors_increase_expected_time(self):
        clean = LegacyManagement(error_probability=0.0)
        sloppy = LegacyManagement(error_probability=0.2)
        assert sloppy.policy_rollout_s(100) > clean.policy_rollout_s(100)

    def test_stochastic_mode_reproducible(self):
        mgmt = LegacyManagement(error_probability=0.1)
        a = mgmt.policy_rollout_s(50, rng=RandomStream(1))
        b = mgmt.policy_rollout_s(50, rng=RandomStream(1))
        assert a == b

    def test_sdn_speedup_grows_with_fleet(self):
        def speedup(fabric):
            legacy_s = LegacyManagement().policy_rollout_s(len(fabric.switches))
            return legacy_s / SdnController(fabric).policy_rollout_s(10)

        small = speedup(leaf_spine(2, 2, 2))
        large = speedup(fat_tree(8))
        assert large > small > 1.0

    def test_validation(self):
        with pytest.raises(ModelError):
            LegacyManagement(n_admins=0)
        with pytest.raises(ModelError):
            LegacyManagement(error_probability=1.0)
        with pytest.raises(ModelError):
            LegacyManagement().policy_rollout_s(0)


class TestNfv:
    def test_chain_cycles_sum(self):
        chain = standard_dmz_chain()
        expected = sum(
            FUNCTION_CATALOG[n].cycles_per_packet
            for n in ("firewall", "ids", "load-balancer")
        )
        assert chain.cycles_per_packet == expected

    def test_vnf_throughput_decreases_with_chain_length(self):
        host = VnfHost()
        short = ServiceChain("fw", [FUNCTION_CATALOG["firewall"]])
        long = standard_dmz_chain()
        assert short.vnf_throughput_gbps(host) > long.vnf_throughput_gbps(host)

    def test_hosts_needed_scales_with_target(self):
        chain = standard_dmz_chain()
        host = VnfHost()
        assert chain.vnf_hosts_needed(100.0, host) > chain.vnf_hosts_needed(
            10.0, host
        )

    def test_vnf_provisioning_much_faster_than_appliance(self):
        chain = standard_dmz_chain()
        assert (
            chain.vnf_time_to_capacity_minutes(VnfHost())
            < chain.appliance_time_to_capacity_minutes() / 100
        )

    def test_appliance_capex_counts_every_function(self):
        chain = standard_dmz_chain()
        single = ServiceChain("fw", [FUNCTION_CATALOG["firewall"]])
        assert chain.appliance_capex_usd(10.0) > single.appliance_capex_usd(10.0)

    def test_low_rate_vnf_cheaper_than_appliances(self):
        # At modest ingress rates, a couple of servers beat three boxes.
        chain = standard_dmz_chain()
        host = VnfHost()
        assert chain.vnf_capex_usd(5.0, host) < chain.appliance_capex_usd(5.0)

    def test_empty_chain_rejected(self):
        with pytest.raises(ModelError):
            ServiceChain("empty", [])

    def test_bad_target_rejected(self):
        with pytest.raises(ModelError):
            standard_dmz_chain().appliance_capex_usd(0.0)
