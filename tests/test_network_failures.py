"""Tests for fabric failure-resilience analysis."""

import pytest

from repro.errors import TopologyError
from repro.network import (
    fat_tree,
    hosts_connected,
    leaf_spine,
    progressive_link_failures,
    single_switch_failure_impact,
)


class TestConnectivity:
    def test_connected_baseline(self):
        assert hosts_connected(leaf_spine(2, 2, 2))

    def test_losing_a_leaf_disconnects_its_hosts(self):
        fabric = leaf_spine(2, 2, 2)
        fabric.remove_node("leaf0")
        assert not hosts_connected(fabric)

    def test_losing_one_spine_keeps_connectivity(self):
        fabric = leaf_spine(4, 2, 2)
        fabric.remove_node("spine0")
        assert hosts_connected(fabric)

    def test_min_cut_equals_spine_count_cross_leaf(self):
        import networkx as nx

        fabric = leaf_spine(4, 2, 2)
        # Cross-leaf pairs are limited by the host access link (1).
        assert nx.edge_connectivity(fabric.graph, "host0-0", "host1-0") == 1
        # Leaf-to-leaf connectivity itself is spine-wide.
        assert nx.edge_connectivity(fabric.graph, "leaf0", "leaf1") == 4

class TestProgressiveFailures:
    def test_bisection_degrades_monotonically_while_connected(self):
        fabric = fat_tree(4)
        points = progressive_link_failures(fabric, n_steps=6, links_per_step=2)
        fractions = [p.bisection_fraction for p in points if p.connected]
        assert fractions[0] == 1.0
        assert all(b <= a + 1e-9 for a, b in zip(fractions, fractions[1:]))

    def test_path_diversity_prevents_disconnection(self):
        # A single-spine leaf-spine partitions after one uplink failure;
        # the fat-tree absorbs several and stays connected.
        ft = fat_tree(4)
        single_spine = leaf_spine(1, 2, 2)
        ft_points = progressive_link_failures(ft, n_steps=4, seed=3)
        ls_points = progressive_link_failures(
            single_spine, n_steps=4, links_per_step=1, seed=3
        )
        assert ft_points[-1].connected
        assert ft_points[-1].bisection_fraction >= 0.5
        assert not ls_points[-1].connected

    def test_deterministic_given_seed(self):
        fabric = fat_tree(4)
        a = progressive_link_failures(fabric, 3, seed=9)
        b = progressive_link_failures(fabric, 3, seed=9)
        assert [(p.failures, p.bisection_gbps) for p in a] == [
            (p.failures, p.bisection_gbps) for p in b
        ]

    def test_validation(self):
        with pytest.raises(TopologyError):
            progressive_link_failures(fat_tree(4), 0)

    def test_candidate_pool_exhaustion_is_flagged(self):
        # A single-leaf fabric has only its 2 uplinks as core links and
        # its hosts stay connected through the leaf regardless, so a
        # 50-step request runs the pool dry: 2 steps, then a silent
        # truncation before the profile learned to say so.
        profile = progressive_link_failures(
            leaf_spine(2, 1, 4), n_steps=50, links_per_step=1
        )
        assert profile.exhausted
        assert profile[-1].connected
        assert len(profile) == 3  # baseline + one point per fallen link

    def test_partial_final_batch_is_flagged(self):
        # 2 core links cannot fill even one 3-link batch.
        profile = progressive_link_failures(
            leaf_spine(2, 1, 4), n_steps=1, links_per_step=3
        )
        assert profile.exhausted
        assert profile[-1].failures == 2

    def test_ample_pool_is_not_flagged(self):
        profile = progressive_link_failures(
            fat_tree(6), n_steps=3, links_per_step=1, seed=11
        )
        assert not profile.exhausted
        assert len(profile) == 4

    def test_profile_still_behaves_as_a_list(self):
        profile = progressive_link_failures(fat_tree(4), 3, seed=9)
        assert profile[0].failures == 0
        assert [p.failures for p in profile] == sorted(
            p.failures for p in profile
        )


class TestSwitchFailureImpact:
    def test_leaf_spine_spine_loss_fraction(self):
        # Capacity-balanced design: 16 hosts x 10G per leaf == 4 spines
        # x 40G of uplink, so losing 1 of 4 spines costs 1/4 of bisection.
        fabric = leaf_spine(4, 2, 16)
        impact = single_switch_failure_impact(fabric)
        assert impact["agg"] == pytest.approx(0.75, abs=0.05)
        # Losing a leaf disconnects its hosts entirely.
        assert impact["tor"] == 0.0

    def test_overprovisioned_uplinks_hide_spine_loss(self):
        # With fat uplinks the access links bind: a spine loss is
        # invisible to host-partition bisection (fraction stays 1.0).
        fabric = leaf_spine(4, 2, 4)
        impact = single_switch_failure_impact(fabric)
        assert impact["agg"] == pytest.approx(1.0)

    def test_fat_tree_core_loss_is_gentle(self):
        impact = single_switch_failure_impact(fat_tree(4))
        assert impact["core"] >= 0.7

    def test_matches_naive_reference_implementation(self):
        # The optimized analysis (contract once, reuse the baseline
        # flow, articulation-point connectivity) must agree with the
        # frozen copy-and-recompute reference on every fabric shape.
        from repro._perfref import reference_single_switch_failure_impact

        for fabric in (leaf_spine(4, 2, 16), leaf_spine(4, 2, 4),
                       leaf_spine(1, 2, 2), fat_tree(4)):
            fast = single_switch_failure_impact(fabric)
            naive = reference_single_switch_failure_impact(fabric)
            assert set(fast) == set(naive)
            for role in fast:
                assert fast[role] == pytest.approx(naive[role], rel=1e-9)
