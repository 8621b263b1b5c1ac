"""Property-based tests for network bandwidth sharing and economic models."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BassModel, LogisticModel
from repro.econ import (
    PROCESS_CATALOG,
    die_cost_usd,
    npv,
    yield_negative_binomial,
    yield_poisson,
)
from repro.frameworks import ShuffleSpec, shuffle_time_s
from repro.network import (
    Flow,
    FlowSimulator,
    ecmp_paths,
    leaf_spine,
    max_min_fair_rates,
)
from repro.network.routing import path_links


def _fabric():
    return leaf_spine(2, 2, 4, host_gbps=10.0, uplink_gbps=40.0)


class TestMaxMinProperties:
    @given(
        n_flows=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_no_link_oversubscribed_and_rates_positive(self, n_flows, seed):
        import random

        rng = random.Random(seed)
        fabric = _fabric()
        hosts = fabric.hosts
        flows = []
        for fid in range(n_flows):
            src, dst = rng.sample(hosts, 2)
            flow = Flow(fid, src, dst, 1e9)
            flow.path = ecmp_paths(fabric, src, dst)[0]
            flows.append(flow)
        rates = max_min_fair_rates(fabric, flows)
        # Every flow gets positive bandwidth.
        assert all(rate > 0 for rate in rates.values())
        # No link carries more than its capacity (within float tolerance).
        load = {}
        for flow in flows:
            for link in path_links(flow.path):
                load[link] = load.get(link, 0.0) + rates[flow.flow_id]
        for (a, b), total in load.items():
            capacity = fabric.link_rate_gbps(a, b) * 1e9 / 8.0
            assert total <= capacity * (1 + 1e-9)

    @given(
        sizes=st.lists(st.floats(min_value=1e6, max_value=1e9),
                       min_size=1, max_size=8),
    )
    @settings(max_examples=20, deadline=None)
    def test_all_flows_complete_after_start(self, sizes):
        fabric = _fabric()
        flows = [
            Flow(i, "host0-0", "host1-1", size, start_s=0.1 * i)
            for i, size in enumerate(sizes)
        ]
        FlowSimulator(fabric).run(flows)
        for flow in flows:
            assert flow.finish_s is not None
            # Lower bound: its own serialization time on the 10G access link.
            assert flow.finish_s >= flow.start_s + flow.size_bytes / 1.25e9 - 1e-9


class TestShuffleProperties:
    @given(
        volume=st.floats(min_value=0.0, max_value=1e12),
        hosts=st.integers(min_value=1, max_value=1000),
        nic=st.floats(min_value=1.0, max_value=400.0),
    )
    def test_non_negative_and_monotone_in_volume(self, volume, hosts, nic):
        time_a = shuffle_time_s(ShuffleSpec(volume, hosts, nic))
        time_b = shuffle_time_s(ShuffleSpec(volume * 2, hosts, nic))
        assert time_a >= 0.0
        assert time_b >= time_a


class TestEconProperties:
    @given(
        cashflows=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                           min_size=1, max_size=10),
        rate=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_npv_bounded_by_undiscounted_sum_for_positive_flows(
        self, cashflows, rate
    ):
        positive = [abs(c) for c in cashflows]
        assert npv(positive, rate) <= sum(positive) + 1e-9

    @given(
        area=st.floats(min_value=1.0, max_value=800.0),
        density=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_yield_models_bounded_and_ordered(self, area, density):
        nb = yield_negative_binomial(area, density)
        poisson = yield_poisson(area, density)
        assert 0.0 < nb <= 1.0
        assert 0.0 < poisson <= 1.0
        assert nb >= poisson - 1e-12  # clustering never hurts yield

    @given(
        small=st.floats(min_value=10.0, max_value=200.0),
        factor=st.floats(min_value=1.1, max_value=3.0),
    )
    @settings(max_examples=50)
    def test_die_cost_monotone_in_area(self, small, factor):
        node = PROCESS_CATALOG["28nm"]
        assert die_cost_usd(small * factor, node) > die_cost_usd(small, node)


class TestAdoptionProperties:
    @given(
        p=st.floats(min_value=0.005, max_value=0.1),
        q=st.floats(min_value=0.0, max_value=0.8),
        fraction=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_bass_inverse_roundtrip(self, p, q, fraction):
        model = BassModel(p=p, q=q)
        years = model.years_to_fraction(fraction)
        assert model.cumulative_fraction(years) == (
            __import__("pytest").approx(fraction, abs=1e-6)
        )

    @given(
        midpoint=st.floats(min_value=1.0, max_value=20.0),
        steepness=st.floats(min_value=0.1, max_value=3.0),
        t1=st.floats(min_value=0.0, max_value=40.0),
        dt=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_logistic_monotone_nondecreasing(self, midpoint, steepness, t1, dt):
        # Strict in exact arithmetic; the curve saturates to 1.0 in floats.
        model = LogisticModel(midpoint_years=midpoint, steepness=steepness)
        early = model.cumulative_fraction(t1)
        late = model.cumulative_fraction(t1 + dt)
        assert late >= early
        # Strictness only away from the saturation plateau: within
        # ~1e-12 of 1.0 the per-step increment underflows below float
        # spacing and the curve is exactly flat in doubles.
        if late < 1.0 - 1e-12:
            assert late > early
