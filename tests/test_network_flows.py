"""Tests for flow-level bandwidth sharing and packet-level queueing."""

import numpy as np
import pytest

from repro import units
from repro.errors import TopologyError
from repro.network import (
    Flow,
    FlowSimulator,
    PacketNetwork,
    ecmp_paths,
    invalidate_link_capacity_cache,
    leaf_spine,
    max_min_fair_rates,
    transfer_time_s,
)
from repro.engine import RandomStream, Simulator


def _fabric():
    return leaf_spine(n_spines=2, n_leaves=2, hosts_per_leaf=4,
                      host_gbps=10.0, uplink_gbps=40.0)


def _poisson_latencies(fabric, src, dst, rate_pps, n_packets, seed=7):
    """Latencies of a Poisson stream of 1500 B packets from src to dst."""
    sim = Simulator()
    net = PacketNetwork(sim, fabric, hop_delay_s=0.5e-6)
    rng = RandomStream(seed, "arrivals")

    def source(sim):
        for pid in range(n_packets):
            net.send(pid, src, dst, 1_500.0)
            yield sim.timeout(rng.exponential(1.0 / rate_pps))

    sim.spawn(source(sim))
    sim.run()
    assert len(net.delivered) == n_packets
    return [p.latency_s for p in net.delivered]


class TestMaxMinFair:
    def test_single_flow_gets_bottleneck(self):
        fabric = _fabric()
        flow = Flow(0, "host0-0", "host1-0", units.GB)
        flow.path = ecmp_paths(fabric, flow.src, flow.dst)[0]
        rates = max_min_fair_rates(fabric, [flow])
        assert rates[0] == pytest.approx(10e9 / 8)

    def test_two_flows_share_common_access_link(self):
        fabric = _fabric()
        # Both flows leave the same host: its 10G access link is shared.
        flows = []
        for i, dst in enumerate(["host1-0", "host1-1"]):
            f = Flow(i, "host0-0", dst, units.GB)
            f.path = ecmp_paths(fabric, f.src, dst)[0]
            flows.append(f)
        rates = max_min_fair_rates(fabric, flows)
        assert rates[0] == pytest.approx(10e9 / 16)
        assert rates[1] == pytest.approx(10e9 / 16)

    def test_disjoint_flows_get_full_rate(self):
        fabric = _fabric()
        flows = []
        for i, (src, dst) in enumerate(
            [("host0-0", "host0-1"), ("host0-2", "host0-3")]
        ):
            f = Flow(i, src, dst, units.GB)
            f.path = ecmp_paths(fabric, src, dst)[0]
            flows.append(f)
        rates = max_min_fair_rates(fabric, flows)
        assert rates[0] == pytest.approx(10e9 / 8)
        assert rates[1] == pytest.approx(10e9 / 8)

    def test_unassigned_path_rejected(self):
        fabric = _fabric()
        with pytest.raises(TopologyError):
            max_min_fair_rates(fabric, [Flow(0, "a", "b", 1.0)])


class TestFlowSimulator:
    def test_single_transfer_time(self):
        fabric = _fabric()
        # 1 GB at 10 Gb/s = 0.8 s.
        assert transfer_time_s(fabric, "host0-0", "host1-0", units.GB) == (
            pytest.approx(0.8, rel=1e-6)
        )

    def test_two_sharing_flows_take_longer(self):
        fabric = _fabric()
        flows = [
            Flow(0, "host0-0", "host1-0", units.GB),
            Flow(1, "host0-0", "host1-1", units.GB),
        ]
        FlowSimulator(fabric).run(flows)
        # Sharing a 10G access link: both finish at ~1.6 s.
        for flow in flows:
            assert flow.finish_s == pytest.approx(1.6, rel=1e-3)

    def test_staggered_arrival(self):
        fabric = _fabric()
        flows = [
            Flow(0, "host0-0", "host1-0", units.GB, start_s=0.0),
            Flow(1, "host0-0", "host1-1", units.GB, start_s=10.0),
        ]
        FlowSimulator(fabric).run(flows)
        # First finishes alone before the second even starts.
        assert flows[0].finish_s == pytest.approx(0.8, rel=1e-3)
        assert flows[1].finish_s == pytest.approx(10.8, rel=1e-3)

    def test_short_flow_finishes_first_releases_bandwidth(self):
        fabric = _fabric()
        flows = [
            Flow(0, "host0-0", "host1-0", units.GB),
            Flow(1, "host0-0", "host1-1", 0.25 * units.GB),
        ]
        FlowSimulator(fabric).run(flows)
        # Short flow: 0.25 GB at 5 Gb/s -> 0.4 s. Long flow: 0.75 GB left
        # then full 10G: 0.4 + 0.6 = 1.0... compute: first phase 0.4 s at
        # 625 MB/s each. Long has 1e9 - 0.25e9 = 0.75e9 left, now at
        # 1.25e9 B/s -> 0.6 s more.
        assert flows[1].finish_s == pytest.approx(0.4, rel=1e-3)
        assert flows[0].finish_s == pytest.approx(1.0, rel=1e-3)

    def test_empty_flow_list(self):
        assert FlowSimulator(_fabric()).run([]) == []

    def test_many_flows_all_complete(self):
        fabric = leaf_spine(4, 4, 4)
        flows = [
            Flow(i, f"host{i % 4}-{i % 4}", f"host{(i + 1) % 4}-{(i + 2) % 4}",
                 (i + 1) * 10 * units.MB, start_s=0.01 * i)
            for i in range(32)
        ]
        FlowSimulator(fabric).run(flows)
        assert all(f.finish_s is not None for f in flows)
        assert all(f.finish_s >= f.start_s for f in flows)


class TestPacketNetwork:
    def test_unloaded_latency_is_serialization_plus_hops(self):
        fabric = _fabric()
        sim = Simulator()
        net = PacketNetwork(sim, fabric, hop_delay_s=1e-6)
        record = net.send(0, "host0-0", "host0-1", 1500.0)
        sim.run()
        # Two 10G hops: 2 * (1500*8/1e10) + 2 * 1e-6.
        expected = 2 * (1500 * 8 / 1e10) + 2e-6
        assert record.latency_s == pytest.approx(expected, rel=1e-6)

    def test_latency_unavailable_in_flight(self):
        fabric = _fabric()
        sim = Simulator()
        net = PacketNetwork(sim, fabric)
        record = net.send(0, "host0-0", "host1-0", 1500.0)
        with pytest.raises(TopologyError):
            _ = record.latency_s

    def test_queueing_grows_tail_latency(self):
        fabric = _fabric()
        # 60% load on a 10G link with 1500 B packets: ~833 kpps max.
        lat_light = _poisson_latencies(
            fabric, "host0-0", "host0-1", rate_pps=50_000, n_packets=2000
        )
        lat_heavy = _poisson_latencies(
            fabric, "host0-0", "host0-1", rate_pps=700_000, n_packets=2000
        )
        assert np.percentile(lat_heavy, 99) > 2 * np.percentile(lat_light, 99)

    def test_deterministic_given_seed(self):
        fabric = _fabric()
        a = _poisson_latencies(
            fabric, "host0-0", "host1-0", 10_000, 200, seed=3
        )
        b = _poisson_latencies(
            fabric, "host0-0", "host1-0", 10_000, 200, seed=3
        )
        assert a == b

class TestSolverFastPath:
    """Regression coverage for the vectorized incremental solver."""

    def test_zero_capacity_link_raises_topology_error(self):
        fabric = _fabric()
        path = ecmp_paths(fabric, "host0-0", "host1-0")[0]
        fabric.graph.edges[path[0], path[1]]["rate_gbps"] = 0.0
        with pytest.raises(TopologyError, match="flow 7"):
            FlowSimulator(fabric).run(
                [Flow(7, "host0-0", "host1-0", units.GB)]
            )

    def test_zero_capacity_error_names_endpoints(self):
        fabric = _fabric()
        path = ecmp_paths(fabric, "host0-0", "host1-0")[0]
        fabric.graph.edges[path[0], path[1]]["rate_gbps"] = 0.0
        with pytest.raises(TopologyError, match="host0-0->host1-0"):
            FlowSimulator(fabric).run(
                [Flow(7, "host0-0", "host1-0", units.GB)]
            )

    def test_capacity_cache_reused_until_invalidated(self):
        fabric = _fabric()
        t_full = transfer_time_s(fabric, "host0-0", "host1-0", units.GB)
        # In-place rate edits are invisible until the cache is dropped:
        # the edge count fingerprint cannot see them.
        for a, b in fabric.graph.edges:
            fabric.graph.edges[a, b]["rate_gbps"] /= 2.0
        t_stale = transfer_time_s(fabric, "host0-0", "host1-0", units.GB)
        assert t_stale == pytest.approx(t_full, rel=1e-9)
        invalidate_link_capacity_cache(fabric)
        t_halved = transfer_time_s(fabric, "host0-0", "host1-0", units.GB)
        assert t_halved == pytest.approx(2 * t_full, rel=1e-6)

    def test_invalidate_without_cache_is_noop(self):
        fabric = _fabric()
        invalidate_link_capacity_cache(fabric)  # nothing cached yet
        invalidate_link_capacity_cache(fabric)

    def test_matches_reference_solver(self):
        import random

        from repro._perfref import ReferenceFlowSimulator

        rng = random.Random(5)

        def make_flows():
            flows = []
            for i in range(40):
                src = f"host{rng.randrange(2)}-{rng.randrange(4)}"
                dst = f"host{rng.randrange(2)}-{rng.randrange(4)}"
                while dst == src:
                    dst = f"host{rng.randrange(2)}-{rng.randrange(4)}"
                flows.append(
                    Flow(i, src, dst, (1 + rng.random() * 49) * 1e6,
                         start_s=rng.random() * 0.1)
                )
            return flows

        rng_state = rng.getstate()
        fast = make_flows()
        rng.setstate(rng_state)
        slow = make_flows()
        FlowSimulator(_fabric()).run(fast)
        ReferenceFlowSimulator(_fabric()).run(slow)
        for f, s in zip(fast, slow):
            assert f.finish_s == pytest.approx(s.finish_s, rel=1e-9)

    def test_transfer_time_error_when_solver_incomplete(self, monkeypatch):
        class _StalledSolver:
            def __init__(self, fabric):
                pass

            def run(self, flows):
                return flows  # never sets finish_s

        import repro.network.flows as flows_mod

        monkeypatch.setattr(flows_mod, "FlowSimulator", _StalledSolver)
        with pytest.raises(TopologyError, match="no finish time"):
            transfer_time_s(_fabric(), "host0-0", "host1-0", units.GB)
