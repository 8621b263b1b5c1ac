"""Tests for fabrics, link generations and routing."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError, TopologyError
from repro.network import (
    ETHERNET_ROADMAP,
    Fabric,
    Link,
    commodity_generation,
    disaggregated_fabric,
    ecmp_path_for_flow,
    ecmp_paths,
    fat_tree,
    generations_by_year,
    leaf_spine,
    path_bottleneck_gbps,
    path_links,
)
from repro.network.flows import _fabric_link_capacities


class TestLinkGenerations:
    def test_roadmap_has_six_generations(self):
        assert len(ETHERNET_ROADMAP) == 6

    def test_400gbe_arrives_after_2020(self):
        # §IV.A.3: "beyond 400 GbE ... available after 2020".
        assert ETHERNET_ROADMAP["400GbE"].volume_year > 2020

    def test_400gbe_and_beyond_need_photonics(self):
        assert ETHERNET_ROADMAP["400GbE"].photonic
        assert ETHERNET_ROADMAP["800GbE"].photonic
        assert not ETHERNET_ROADMAP["100GbE"].photonic

    def test_cost_per_gbps_improves_monotonically(self):
        costs = [g.usd_per_gbps for g in generations_by_year()]
        assert costs == sorted(costs, reverse=True)

    def test_commodity_generation_2016_is_40gbe(self):
        # R1: 10/40 GbE is what Europe should adopt "now" (2016).
        assert commodity_generation(2016).name == "40GbE"

    def test_commodity_generation_pre_history_rejected(self):
        with pytest.raises(ModelError):
            commodity_generation(1990)

    def test_generations_sorted_by_volume_year(self):
        years = [g.volume_year for g in generations_by_year()]
        assert years == sorted(years)

    def test_link_validation(self):
        with pytest.raises(ModelError):
            Link("a", "a", 10.0)
        with pytest.raises(ModelError):
            Link("a", "b", 0.0)


class TestFabricConstruction:
    def test_duplicate_node_rejected(self):
        fabric = Fabric("t")
        fabric.add_node("a", "host")
        with pytest.raises(TopologyError):
            fabric.add_node("a", "host")

    def test_link_to_unknown_node_rejected(self):
        fabric = Fabric("t")
        fabric.add_node("a", "host")
        with pytest.raises(TopologyError):
            fabric.add_link("a", "ghost", 10.0)

    def test_duplicate_link_rejected(self):
        fabric = Fabric("t")
        fabric.add_node("a", "host")
        fabric.add_node("b", "tor")
        fabric.add_link("a", "b", 10.0)
        with pytest.raises(TopologyError):
            fabric.add_link("a", "b", 10.0)

    def test_disconnected_fabric_fails_validation(self):
        fabric = Fabric("t")
        fabric.add_node("a", "host")
        fabric.add_node("b", "host")
        with pytest.raises(TopologyError):
            fabric.validate()

    def test_empty_fabric_fails_validation(self):
        with pytest.raises(TopologyError):
            Fabric("t").validate()


class TestLeafSpine:
    def test_dimensions(self):
        fabric = leaf_spine(n_spines=4, n_leaves=8, hosts_per_leaf=16)
        assert len(fabric.hosts) == 128
        assert len(fabric.nodes_with_role("tor")) == 8
        assert len(fabric.nodes_with_role("agg")) == 4
        assert len(fabric.switches) == 12

    def test_every_leaf_reaches_every_spine(self):
        fabric = leaf_spine(2, 3, 4)
        for l in range(3):
            for s in range(2):
                assert fabric.link_rate_gbps(f"leaf{l}", f"spine{s}") == 40.0

    def test_host_rate(self):
        fabric = leaf_spine(2, 2, 2, host_gbps=25.0)
        assert fabric.link_rate_gbps("host0-0", "leaf0") == 25.0

    def test_intra_leaf_path_has_two_hops(self):
        fabric = leaf_spine(2, 2, 4)
        paths = ecmp_paths(fabric, "host0-0", "host0-1")
        assert paths == [["host0-0", "leaf0", "host0-1"]]

    def test_inter_leaf_path_crosses_spine(self):
        fabric = leaf_spine(2, 2, 4)
        path = ecmp_paths(fabric, "host0-0", "host1-0")[0]
        assert len(path) == 5
        assert fabric.role(path[2]) == "agg"

    def test_ecmp_width_equals_spine_count(self):
        fabric = leaf_spine(4, 2, 2)
        paths = ecmp_paths(fabric, "host0-0", "host1-0")
        assert len(paths) == 4

    def test_oversubscription(self):
        # 16 hosts * 10G per leaf vs 2 spines * 40G uplinks -> 2:1.
        fabric = leaf_spine(n_spines=2, n_leaves=2, hosts_per_leaf=16)
        assert fabric.oversubscription() == pytest.approx(2.0, rel=0.01)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(TopologyError):
            leaf_spine(0, 2, 2)


class TestFatTree:
    def test_k4_shape(self):
        fabric = fat_tree(4)
        assert len(fabric.hosts) == 16  # k^3/4
        assert len(fabric.nodes_with_role("core")) == 4  # (k/2)^2
        assert len(fabric.nodes_with_role("agg")) == 8  # k*k/2
        assert len(fabric.nodes_with_role("tor")) == 8

    def test_odd_k_rejected(self):
        with pytest.raises(TopologyError):
            fat_tree(3)

    def test_full_bisection(self):
        # The fat-tree's defining property: oversubscription 1.
        fabric = fat_tree(4)
        assert fabric.oversubscription() == pytest.approx(1.0, rel=0.05)

    def test_cross_pod_ecmp_multiplicity(self):
        fabric = fat_tree(4)
        paths = ecmp_paths(fabric, "host0-0-0", "host1-0-0")
        assert len(paths) == 4  # (k/2)^2 core paths

    def test_k6_host_count(self):
        assert len(fat_tree(6).hosts) == 54


class TestDisaggregated:
    def test_pool_roles(self):
        fabric = disaggregated_fabric(2, 2, 2)
        pools = fabric.nodes_with_role("pool")
        assert len(pools) == 6

    def test_pools_reach_every_spine(self):
        fabric = disaggregated_fabric(1, 1, 1, n_spines=3)
        for pool in fabric.nodes_with_role("pool"):
            for s in range(3):
                assert fabric.link_rate_gbps(pool, f"spine{s}") == 100.0

    def test_bad_dims_rejected(self):
        with pytest.raises(TopologyError):
            disaggregated_fabric(0, 1, 1)


class TestRoutingHelpers:
    def test_path_links_canonical_order(self):
        assert path_links(["b", "a", "c"]) == [("a", "b"), ("a", "c")]

    def test_path_links_too_short(self):
        with pytest.raises(TopologyError):
            path_links(["a"])

    def test_bottleneck(self):
        fabric = leaf_spine(2, 2, 2, host_gbps=10.0, uplink_gbps=40.0)
        path = ecmp_paths(fabric, "host0-0", "host1-0")[0]
        assert path_bottleneck_gbps(fabric, path) == 10.0

    def test_ecmp_pick_is_deterministic(self):
        fabric = leaf_spine(4, 2, 2)
        p1 = ecmp_path_for_flow(fabric, "host0-0", "host1-0", 5)
        p2 = ecmp_path_for_flow(fabric, "host0-0", "host1-0", 5)
        assert p1 == p2

    def test_ecmp_spreads_different_flows(self):
        fabric = leaf_spine(4, 2, 2)
        picks = {
            tuple(ecmp_path_for_flow(fabric, "host0-0", "host1-0", fid))
            for fid in range(8)
        }
        assert len(picks) == 4

    def test_same_endpoint_rejected(self):
        fabric = leaf_spine(2, 2, 2)
        with pytest.raises(TopologyError):
            ecmp_paths(fabric, "host0-0", "host0-0")

    def test_unknown_endpoint_rejected(self):
        fabric = leaf_spine(2, 2, 2)
        with pytest.raises(TopologyError):
            ecmp_paths(fabric, "host0-0", "ghost")

class TestStateVersionCaches:
    def test_remove_then_add_link_refreshes_both_caches(self):
        # One link out, one in: the edge count is unchanged, so only the
        # state version can tell the caches the topology moved.
        fabric = leaf_spine(2, 2, 1)
        assert len(ecmp_paths(fabric, "host0-0", "host1-0")) == 2
        assert ("leaf1", "spine1") in _fabric_link_capacities(fabric)
        edges = fabric.graph.number_of_edges()
        fabric.remove_link("leaf1", "spine1")
        fabric.add_link("leaf0", "leaf1", 40.0)
        assert fabric.graph.number_of_edges() == edges
        assert ecmp_paths(fabric, "host0-0", "host1-0") == [
            ["host0-0", "leaf0", "leaf1", "host1-0"]
        ]
        caps = _fabric_link_capacities(fabric)
        assert ("leaf0", "leaf1") in caps
        assert ("leaf1", "spine1") not in caps

    def test_structural_edits_bump_the_state_version(self):
        fabric = leaf_spine(2, 2, 1)
        version = fabric.state_version
        fabric.remove_link("leaf0", "spine0")
        fabric.add_link("leaf0", "spine0", 40.0)
        fabric.remove_node("spine1")
        assert fabric.state_version == version + 3

    def test_removal_forgets_down_marks(self):
        fabric = leaf_spine(2, 2, 1)
        fabric.fail_link("leaf0", "spine0")
        fabric.remove_link("leaf0", "spine0")
        assert fabric.active_graph() is fabric.graph  # nothing marked down
        fabric.fail_node("spine1")
        fabric.fail_link("leaf1", "spine1")
        fabric.remove_node("spine1")
        assert fabric.active_graph() is fabric.graph

    def test_removing_a_missing_element_rejected(self):
        fabric = leaf_spine(2, 2, 1)
        with pytest.raises(TopologyError):
            fabric.remove_link("leaf0", "leaf1")
        with pytest.raises(TopologyError):
            fabric.remove_node("ghost")

    def test_unknown_endpoint_rejected_after_a_cached_lookup(self):
        fabric = leaf_spine(2, 2, 1)
        ecmp_paths(fabric, "host0-0", "host1-0")
        with pytest.raises(TopologyError):
            ecmp_paths(fabric, "host0-0", "ghost")


_OPS = ("fail_link", "restore_link", "remove_link",
        "fail_node", "restore_node", "remove_node")


@given(ops=st.lists(
    st.tuples(st.sampled_from(_OPS), st.integers(0, 2**16)),
    min_size=1, max_size=12,
))
@settings(max_examples=40, deadline=None)
def test_cached_ecmp_matches_uncached_after_random_edits(ops):
    """Cached path sets equal a fresh enumeration after every edit."""
    fabric = fat_tree(4)
    hosts = fabric.hosts
    pairs = [(hosts[0], hosts[1]), (hosts[0], hosts[-1]),
             (hosts[5], hosts[10])]

    def check():
        survivor = nx.restricted_view(
            fabric.graph, sorted(fabric._down_nodes), sorted(fabric._down_links)
        )
        for src, dst in pairs:
            try:
                expected = sorted(nx.all_shortest_paths(survivor, src, dst))
            except nx.NetworkXNoPath:
                expected = None
            try:
                cached = ecmp_paths(fabric, src, dst)
            except TopologyError:
                cached = None
            assert cached == expected
        assert _fabric_link_capacities(fabric) == {
            Fabric.link_key(a, b): data["rate_gbps"] * 1e9 / 8.0
            for a, b, data in survivor.edges(data=True)
        }

    check()
    for name, pick in ops:
        if name.endswith("_link"):
            links = sorted(
                Fabric.link_key(a, b) for a, b in fabric.graph.edges
                if "host" not in a and "host" not in b
            )
            if links:
                getattr(fabric, name)(*links[pick % len(links)])
        else:
            switches = fabric.switches
            if switches:
                getattr(fabric, name)(switches[pick % len(switches)])
        check()
