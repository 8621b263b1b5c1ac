"""Tests for datasets, plans and the batch executor."""

import pytest

from repro.errors import PlanError
from repro.frameworks import (
    BatchExecutor,
    PartitionedDataset,
    Plan,
    cpu_only,
    greedy_time,
)
from repro.cluster import uniform_cluster
from repro.network import leaf_spine
from repro.node import (
    accelerated_server,
    arria10_fpga,
    commodity_server,
    xeon_e5,
)


def _cpu_cluster(hosts_per_leaf=2):
    return uniform_cluster(
        leaf_spine(2, 2, hosts_per_leaf), lambda: commodity_server(xeon_e5())
    )


def _accel_cluster():
    return uniform_cluster(
        leaf_spine(2, 2, 2),
        lambda: accelerated_server(xeon_e5(), arria10_fpga()),
    )


class TestPartitionedDataset:
    def test_round_robin_split(self):
        ds = PartitionedDataset.from_records(list(range(10)), 3)
        assert ds.n_partitions == 3
        assert ds.n_records == 10
        assert sorted(ds.collect()) == list(range(10))

    def test_zero_partitions_rejected(self):
        with pytest.raises(PlanError):
            PartitionedDataset.from_records([1], 0)

    def test_total_bytes(self):
        ds = PartitionedDataset.from_records(list(range(10)), 2, record_bytes=50)
        assert ds.total_bytes == 500

    def test_repartition_by_key_groups_same_keys(self):
        ds = PartitionedDataset.from_records(list(range(100)), 4)
        by_parity = ds.repartition_by_key(lambda x: x % 2, 4)
        # Every partition must be parity-pure.
        for partition in by_parity.partitions:
            parities = {x % 2 for x in partition}
            assert len(parities) <= 1
        assert sorted(by_parity.collect()) == list(range(100))

    def test_repartition_is_deterministic(self):
        ds = PartitionedDataset.from_records(["a", "b", "c"] * 10, 2)
        a = ds.repartition_by_key(lambda x: x, 3).partitions
        b = ds.repartition_by_key(lambda x: x, 3).partitions
        assert a == b


class TestPlanBuilding:
    def test_fluent_chain(self):
        plan = Plan.source().map(lambda x: x).filter(lambda x: True)
        assert [op.kind for op in plan.operators] == ["map", "filter"]

    def test_plans_are_immutable_values(self):
        base = Plan.source().map(lambda x: x)
        extended = base.filter(lambda x: True)
        assert len(base.operators) == 1
        assert len(extended.operators) == 2

    def test_stage_counting(self):
        plan = (
            Plan.source()
            .map(lambda x: x)
            .reduce_by_key(lambda x: x, lambda a, b: a)
            .sort_by(lambda x: x)
        )
        assert plan.n_shuffles == 2

    def test_empty_plan_rejected_at_run(self):
        with pytest.raises(PlanError):
            Plan.source().validate()

    def test_missing_fn_rejected(self):
        from repro.frameworks import Operator

        with pytest.raises(PlanError):
            Operator("map")
        with pytest.raises(PlanError):
            Operator("sort_by")
        with pytest.raises(PlanError):
            Operator("teleport")


class TestBatchCorrectness:
    def test_map_filter(self):
        cluster = _cpu_cluster()
        ds = PartitionedDataset.from_records(list(range(20)), 4)
        plan = Plan.source().map(lambda x: x * 2).filter(lambda x: x >= 20)
        result = BatchExecutor(cluster).run(plan, ds)
        assert sorted(result.records) == [20, 22, 24, 26, 28, 30, 32, 34, 36, 38]

    def test_flat_map(self):
        cluster = _cpu_cluster()
        ds = PartitionedDataset.from_records(["a b", "c"], 2)
        plan = Plan.source().flat_map(lambda s: s.split())
        result = BatchExecutor(cluster).run(plan, ds)
        assert sorted(result.records) == ["a", "b", "c"]

    def test_wordcount_end_to_end(self):
        cluster = _cpu_cluster()
        docs = ["big data big", "data big deal"]
        ds = PartitionedDataset.from_records(docs, 2)
        plan = (
            Plan.source()
            .flat_map(lambda doc: doc.split())
            .map(lambda w: (w, 1))
            .reduce_by_key(lambda kv: kv[0],
                           lambda a, b: (a[0], a[1] + b[1]))
        )
        result = BatchExecutor(cluster).run(plan, ds)
        counts = dict(
            (key, value[1]) for key, value in result.records
        )
        assert counts == {"big": 3, "data": 2, "deal": 1}

    def test_group_by_key(self):
        cluster = _cpu_cluster()
        ds = PartitionedDataset.from_records(list(range(6)), 3)
        plan = Plan.source().group_by_key(lambda x: x % 2)
        result = BatchExecutor(cluster).run(plan, ds)
        groups = {key: sorted(values) for key, values in result.records}
        assert groups == {0: [0, 2, 4], 1: [1, 3, 5]}

    def test_sort_by_is_globally_ordered(self):
        cluster = _cpu_cluster()
        ds = PartitionedDataset.from_records([5, 3, 9, 1, 7, 2], 3)
        plan = Plan.source().sort_by(lambda x: x)
        result = BatchExecutor(cluster).run(plan, ds)
        assert result.records == [1, 2, 3, 5, 7, 9]


class TestBatchCosting:
    def test_narrow_only_plan_has_one_stage_no_shuffle(self):
        cluster = _cpu_cluster()
        ds = PartitionedDataset.from_records(list(range(1000)), 8)
        plan = Plan.source().map(lambda x: x)
        result = BatchExecutor(cluster).run(plan, ds)
        assert len(result.stages) == 1
        assert result.stages[0].shuffle_time_s == 0.0
        assert result.sim_time_s > 0.0
        assert result.energy_j > 0.0

    def test_shuffle_charged_for_wide_plan(self):
        cluster = _cpu_cluster()
        ds = PartitionedDataset.from_records(
            list(range(10_000)), 8, record_bytes=1_000
        )
        plan = Plan.source().reduce_by_key(lambda x: x % 10, lambda a, b: a)
        result = BatchExecutor(cluster).run(plan, ds)
        assert len(result.stages) == 2
        assert result.stages[0].shuffle_time_s > 0.0

    def test_more_hosts_reduce_compute_time(self):
        ds = PartitionedDataset.from_records(list(range(100_000)), 16)
        plan = Plan.source().map(lambda x: x, block="feature-extract")
        small = BatchExecutor(_cpu_cluster(hosts_per_leaf=1)).run(plan, ds)
        large = BatchExecutor(_cpu_cluster(hosts_per_leaf=4)).run(plan, ds)
        assert large.sim_time_s < small.sim_time_s

    def test_offload_speeds_up_acceleratable_plan(self):
        # R10/E11: regex extraction offloads to the FPGA and wins.
        ds = PartitionedDataset.from_records(
            ["log line %d" % i for i in range(200_000)], 8, record_bytes=200
        )
        plan = Plan.source().map(lambda s: s.upper(), block="regex-extract")
        cluster = _accel_cluster()
        baseline = BatchExecutor(cluster, policy=cpu_only()).run(plan, ds)
        offloaded = BatchExecutor(cluster, policy=greedy_time()).run(plan, ds)
        assert offloaded.sim_time_s < baseline.sim_time_s
        assert baseline.records == offloaded.records

    def test_device_busy_accounting_present(self):
        cluster = _accel_cluster()
        ds = PartitionedDataset.from_records(list(range(10_000)), 4)
        plan = Plan.source().map(lambda x: x, block="regex-extract")
        result = BatchExecutor(cluster, policy=greedy_time()).run(plan, ds)
        assert any(
            "arria10-fpga" in key for key in result.stages[0].device_busy_s
        )

    def test_empty_cluster_rejected(self):
        from repro.cluster import Cluster

        empty = Cluster(leaf_spine(2, 2, 2))
        with pytest.raises(PlanError):
            BatchExecutor(empty)
