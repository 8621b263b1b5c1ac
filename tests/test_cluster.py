"""Tests for cluster assembly and disaggregation models."""

import pytest

from repro.cluster import (
    Cluster,
    ComposableCluster,
    ConvergedCluster,
    ResourceVector,
    skewed_demand_stream,
    stranding_experiment,
    uniform_cluster,
    upgrade_cost_comparison,
)
from repro.engine import RandomStream
from repro.errors import ModelError, TopologyError
from repro.network import leaf_spine
from repro.node import commodity_server, xeon_e5


class TestCluster:
    def test_attach_and_lookup(self):
        fabric = leaf_spine(2, 2, 2)
        cluster = Cluster(fabric)
        cluster.attach("host0-0", commodity_server(xeon_e5()))
        assert cluster.server_at("host0-0").cpu.name == "xeon-e5"

    def test_attach_to_switch_rejected(self):
        cluster = Cluster(leaf_spine(2, 2, 2))
        with pytest.raises(TopologyError):
            cluster.attach("leaf0", commodity_server(xeon_e5()))

    def test_double_attach_rejected(self):
        cluster = Cluster(leaf_spine(2, 2, 2))
        cluster.attach("host0-0", commodity_server(xeon_e5()))
        with pytest.raises(TopologyError):
            cluster.attach("host0-0", commodity_server(xeon_e5()))

    def test_unknown_host_rejected(self):
        cluster = Cluster(leaf_spine(2, 2, 2))
        with pytest.raises(TopologyError):
            cluster.attach("ghost", commodity_server(xeon_e5()))
        with pytest.raises(TopologyError):
            cluster.server_at("host1-1")

    def test_uniform_cluster_covers_all_hosts(self):
        cluster = uniform_cluster(
            leaf_spine(2, 2, 4), lambda: commodity_server(xeon_e5())
        )
        assert cluster.n_servers == 8
        assert cluster.hosts == sorted(cluster.fabric.hosts)

class TestResourceVector:
    def test_fits_in(self):
        small = ResourceVector(2, 16, 0.1)
        big = ResourceVector(16, 256, 2.0)
        assert small.fits_in(big)
        assert not big.fits_in(small)

    def test_arithmetic(self):
        a = ResourceVector(4, 32, 1.0)
        b = ResourceVector(2, 16, 0.5)
        assert a.minus(b) == ResourceVector(2, 16, 0.5)
        assert a.plus(b) == ResourceVector(6, 48, 1.5)

    def test_negative_rejected(self):
        with pytest.raises(ModelError):
            ResourceVector(-1, 0, 0)
        with pytest.raises(ModelError):
            ResourceVector(1, 1, 1).minus(ResourceVector(2, 0, 0))


class TestConvergedPlacement:
    def test_first_fit(self):
        cluster = ConvergedCluster(2, ResourceVector(16, 128, 2.0))
        assert cluster.try_place(ResourceVector(16, 64, 1.0))
        assert cluster.try_place(ResourceVector(16, 64, 1.0))  # second box
        assert not cluster.try_place(ResourceVector(1, 128, 0.1))

    def test_job_bigger_than_any_server_rejected(self):
        cluster = ConvergedCluster(4, ResourceVector(16, 128, 2.0))
        assert not cluster.try_place(ResourceVector(32, 64, 1.0))

    def test_utilization_tracks_placement(self):
        cluster = ConvergedCluster(2, ResourceVector(10, 100, 1.0))
        cluster.try_place(ResourceVector(10, 50, 0.5))
        util = cluster.utilization()
        assert util["cores"] == pytest.approx(0.5)
        assert util["memory_gb"] == pytest.approx(0.25)


class TestComposablePlacement:
    def test_pool_allocation_ignores_server_boundaries(self):
        # A job too big for one converged server fits in the pool.
        pool = ComposableCluster(ResourceVector(64, 512, 8.0))
        assert pool.try_place(ResourceVector(32, 64, 1.0))

    def test_exhaustion(self):
        pool = ComposableCluster(ResourceVector(4, 32, 1.0))
        assert pool.try_place(ResourceVector(4, 32, 1.0))
        assert not pool.try_place(ResourceVector(1, 1, 0.1))

    def test_utilization(self):
        pool = ComposableCluster(ResourceVector(10, 100, 1.0))
        pool.try_place(ResourceVector(5, 25, 0.25))
        util = pool.utilization()
        assert util["cores"] == pytest.approx(0.5)
        assert util["storage_tb"] == pytest.approx(0.25)


class TestStrandingExperiment:
    def test_composable_places_at_least_as_many(self):
        rng = RandomStream(11)
        demands = skewed_demand_stream(500, rng)
        result = stranding_experiment(
            demands, n_servers=20, server_capacity=ResourceVector(32, 256, 4.0)
        )
        assert result["composable"]["placed"] >= result["converged"]["placed"]

    def test_composable_strands_less_with_skewed_mix(self):
        # The E8 claim: bimodal demands strand converged dimensions.
        rng = RandomStream(42)
        demands = skewed_demand_stream(2000, rng)
        result = stranding_experiment(
            demands, n_servers=16, server_capacity=ResourceVector(32, 256, 4.0)
        )
        assert result["composable"]["placed"] > 1.1 * result["converged"]["placed"]

    def test_empty_demands_rejected(self):
        with pytest.raises(ModelError):
            stranding_experiment([], 2, ResourceVector(1, 1, 1))

    def test_demand_stream_validation(self):
        with pytest.raises(ModelError):
            skewed_demand_stream(0, RandomStream(0))
        with pytest.raises(ModelError):
            skewed_demand_stream(10, RandomStream(0), core_heavy_fraction=1.5)


class TestUpgradeCost:
    def test_composable_upgrade_cheaper(self):
        for dim in ("cores", "memory_gb", "storage_tb"):
            result = upgrade_cost_comparison(100, dim)
            assert result["composable_usd"] < result["converged_usd"]
            assert 0.0 < result["savings_fraction"] < 1.0

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ModelError):
            upgrade_cost_comparison(10, "gpus")

    def test_scales_linearly_with_fleet(self):
        small = upgrade_cost_comparison(10, "cores")
        large = upgrade_cost_comparison(100, "cores")
        assert large["converged_usd"] == pytest.approx(
            10 * small["converged_usd"]
        )

    def test_zero_fleet_rejected(self):
        with pytest.raises(ModelError):
            upgrade_cost_comparison(0, "cores")
