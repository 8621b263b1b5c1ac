"""Property-based tests for the query layer, streaming windows and
load-balanced path assignment."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import uniform_cluster
from repro.frameworks import (
    Aggregation,
    BatchExecutor,
    PartitionedDataset,
    Query,
    TumblingWindow,
    run_query,
)
from repro.network import (
    Flow,
    assign_paths_ecmp,
    assign_paths_least_loaded,
    fat_tree,
    leaf_spine,
)
from repro.node import commodity_server, xeon_e5

_CLUSTER = uniform_cluster(
    leaf_spine(2, 2, 2), lambda: commodity_server(xeon_e5())
)
_EXECUTOR = BatchExecutor(_CLUSTER)

_row = st.fixed_dictionaries(
    {
        "g": st.integers(min_value=0, max_value=3),
        "v": st.integers(min_value=-100, max_value=100),
    }
)


class TestQueryProperties:
    @given(rows=st.lists(_row, min_size=1, max_size=60),
           threshold=st.integers(min_value=-100, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_where_equals_reference_select(self, rows, threshold):
        dataset = PartitionedDataset.from_records(rows, 4)
        query = Query.table().where("v", ">", threshold)
        got = run_query(_EXECUTOR, query, dataset)
        expected = [r for r in rows if r["v"] > threshold]
        assert sorted(map(repr, got)) == sorted(map(repr, expected))

    @given(rows=st.lists(_row, min_size=1, max_size=60))
    @settings(max_examples=20, deadline=None)
    def test_group_sum_equals_reference(self, rows):
        dataset = PartitionedDataset.from_records(rows, 4)
        query = Query.table().group_by("g", Aggregation("sum", "v", "sum"))
        got = {r["g"]: r["sum"] for r in run_query(_EXECUTOR, query, dataset)}
        expected = {}
        for row in rows:
            expected[row["g"]] = expected.get(row["g"], 0) + row["v"]
        assert got == expected


class TestWindowProperties:
    @given(t=st.floats(min_value=0.0, max_value=1e6),
           width=st.floats(min_value=0.1, max_value=100.0))
    def test_tumbling_contains_event(self, t, width):
        windows = TumblingWindow(width).assign(t)
        assert len(windows) == 1
        start, end = windows[0]
        assert start <= t < end or abs(end - start - width) < 1e-9

class TestLoadBalanceProperties:
    def test_least_loaded_beats_ecmp_on_average_core_load(self):
        # The greedy is a heuristic: a lucky hash can beat it on a single
        # instance, and access-link load is policy-invariant -- so the
        # meaningful property is statistical dominance of the hottest
        # *core* link over many random flow sets.
        import random

        from repro.network import link_load_bytes

        fabric = fat_tree(4)
        hosts = set(fabric.hosts)

        def hottest_core_link(flows):
            load = link_load_bytes(fabric, flows)
            return max(
                bytes_
                for (a, b), bytes_ in load.items()
                if a not in hosts and b not in hosts
            )

        ecmp_total = ll_total = 0.0
        for seed in range(30):
            def build():
                rng = random.Random(seed)
                return [
                    Flow(fid, *rng.sample(sorted(hosts), 2),
                         rng.uniform(1e6, 1e9))
                    for fid in range(10)
                ]

            ecmp_flows = build()
            assign_paths_ecmp(fabric, ecmp_flows)
            ecmp_total += hottest_core_link(ecmp_flows)
            ll_flows = build()
            assign_paths_least_loaded(fabric, ll_flows)
            ll_total += hottest_core_link(ll_flows)
        assert ll_total < 0.9 * ecmp_total

    @given(
        n_flows=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=20, deadline=None)
    def test_least_loaded_bottleneck_bound(self, n_flows, seed):
        # Hard per-instance invariant: the greedy's most-loaded link never
        # carries more than the total bytes of all flows (sanity) and at
        # least the largest single flow (necessity).
        import random

        from repro.network import link_load_bytes

        rng = random.Random(seed)
        fabric = fat_tree(4)
        hosts = fabric.hosts
        flows = [
            Flow(fid, *rng.sample(hosts, 2), rng.uniform(1e6, 1e9))
            for fid in range(n_flows)
        ]
        assign_paths_least_loaded(fabric, flows)
        load = link_load_bytes(fabric, flows)
        heaviest = max(load.values())
        assert heaviest <= sum(f.size_bytes for f in flows) + 1e-6
        assert heaviest >= max(f.size_bytes for f in flows) - 1e-6

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_assigned_paths_are_valid_ecmp_members(self, seed):
        import random

        rng = random.Random(seed)
        fabric = fat_tree(4)
        hosts = fabric.hosts
        src, dst = rng.sample(hosts, 2)
        flows = [Flow(i, src, dst, 1e8) for i in range(6)]
        assign_paths_least_loaded(fabric, flows)
        from repro.network import ecmp_paths

        valid = {tuple(p) for p in ecmp_paths(fabric, src, dst)}
        for flow in flows:
            assert tuple(flow.path) in valid
            # Path endpoints match the flow.
            assert flow.path[0] == src and flow.path[-1] == dst
