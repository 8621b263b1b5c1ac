"""Sharded conservative-time DES: partitioning, windows, equivalence.

The load-bearing guarantee of :mod:`repro.engine.sharded` is not "close
enough": the merged sharded trace and every end metric must be
**bit-for-bit identical** to the single-process engine at any shard
count, in inline and fork mode, with and without injected faults --
including faults on boundary links, where both endpoint shards must
observe the identical fault timeline. These tests pin that equivalence
(plus a golden trace digest in the ``_perfref`` style) and the
partition/window/merge pieces it rests on.
"""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.faults import LINK_FLAP, SWITCH_CRASH, FaultSpec
from repro.engine.sharded import (
    exclusive_until,
    merge_shard_traces,
    next_window,
    partition_fabric,
    trace_digest,
)
from repro.errors import SimulationError
from repro.network.topology import Fabric, fat_tree, leaf_spine
from repro.workloads.fabricsim import (
    FabricWorkload,
    _fabric_view,
    _shape,
    _ShardContext,
    _structure,
    simulate_fabric,
    simulate_fabric_sharded,
)

# Golden digest for GOLDEN_WORKLOAD (single engine == sharded engine ==
# this constant). Recompute only for a deliberate trace-format change:
#   PYTHONPATH=src python -c "from tests.test_engine_sharded import \
#       GOLDEN_WORKLOAD; from repro.workloads import simulate_fabric; \
#       print(simulate_fabric(GOLDEN_WORKLOAD).metrics['trace_sha256'])"
GOLDEN_SHA256 = (
    "6801711ef1709c5fbf84da74ddc482a9e45dfaede2a7b67ed0b3099545a7f99d"
)

GOLDEN_WORKLOAD = FabricWorkload(
    fabric="fat-tree",
    k=4,
    n_requests=400,
    duration_s=1e-3,
    seed=42,
    fault_specs=(
        FaultSpec(LINK_FLAP, (("agg0-0", "core0-0"),),
                  mtbf_s=3e-4, mttr_s=2e-4, end_s=1e-3),
        FaultSpec(SWITCH_CRASH, ("agg1-0",),
                  mtbf_s=5e-4, mttr_s=3e-4, end_s=1e-3),
    ),
)



def _x14_faults(duration_s):
    """X14's link-flap and switch-crash schedule (any even k >= 4)."""
    return (
        FaultSpec(LINK_FLAP, (("agg0-0", "core0-0"), ("agg1-1", "core1-0")),
                  mtbf_s=duration_s / 3.0, mttr_s=duration_s / 4.0,
                  end_s=duration_s),
        FaultSpec(SWITCH_CRASH, ("agg2-0",),
                  mtbf_s=duration_s / 2.0, mttr_s=duration_s / 3.0,
                  end_s=duration_s),
    )


# A k=8 fat-tree has 4 uplinks per switch, so under X14's faults ECMP
# picks among the surviving ones; every forwarding decision is recorded.
# Recompute only for a deliberate trace-format change:
#   PYTHONPATH=src python -c "from tests.test_engine_sharded import \
#       K8_HOPS_WORKLOAD; from repro.workloads import simulate_fabric; \
#       print(simulate_fabric(K8_HOPS_WORKLOAD, record_hops=True)\
#       .metrics['trace_sha256'])"
K8_HOPS_SHA256 = (
    "41a7ca03187176356dc0d7532cb3c13dfcd2a088ba712fb7a1e6829674eae117"
)

K8_HOPS_WORKLOAD = FabricWorkload(
    fabric="fat-tree",
    k=8,
    n_requests=1500,
    duration_s=2e-3,
    seed=7,
    fault_specs=_x14_faults(2e-3),
)


def _latency_fn(a: str, b: str) -> float:
    return 1e-6


# -- partitioning -----------------------------------------------------------


def test_fat_tree_partition_is_pod_aligned():
    fabric = fat_tree(4)
    plan = partition_fabric(fabric, 2, _latency_fn)
    assert plan.kind == "fat-tree"
    assert plan.n_shards == 2
    # Every pod's tors, aggs and hosts share one shard: no tor/agg/host
    # link crosses the cut, so only agg--core links are boundary links.
    for a, b in plan.boundary_links:
        assert "core" in a or "core" in b, (a, b)
    # All four pods are assigned and both shards are non-empty.
    assert sorted(set(plan.owner.values())) == [0, 1]
    assert len(plan.owner) == fabric.graph.number_of_nodes()
    assert plan.lookahead_s == 1e-6


def test_fat_tree_partition_rejects_more_shards_than_pods():
    with pytest.raises(SimulationError):
        partition_fabric(fat_tree(4), 5, _latency_fn)


def test_leaf_spine_partition_keeps_leaf_with_hosts():
    fabric = leaf_spine(4, 4, 2)
    plan = partition_fabric(fabric, 2, _latency_fn)
    assert plan.kind == "leaf-spine"
    for node, shard in plan.owner.items():
        if node.startswith("host"):
            leaf = "leaf" + node[len("host"):].split("-")[0]
            assert shard == plan.owner[leaf], node
    for a, b in plan.boundary_links:
        assert "spine" in a or "spine" in b, (a, b)


def test_generic_partition_contiguous_blocks():
    graph = nx.path_graph([f"n{i:02d}" for i in range(10)])
    for _, _, data in graph.edges(data=True):
        data["bandwidth_bps"] = 1e9
    fabric = Fabric(name="path", graph=graph)
    plan = partition_fabric(fabric, 3, _latency_fn)
    assert plan.kind == "generic"
    assert sorted(plan.owner.values()) == sorted(
        plan.owner[node] for node in sorted(plan.owner)
    )
    # A path cut into 3 contiguous blocks has exactly 2 boundary links.
    assert len(plan.boundary_links) == 2


def test_partition_rejects_nonpositive_boundary_latency():
    with pytest.raises(SimulationError):
        partition_fabric(fat_tree(4), 2, lambda a, b: 0.0)


def test_single_shard_cut_is_empty_with_infinite_lookahead():
    plan = partition_fabric(fat_tree(4), 1, _latency_fn)
    assert plan.boundary_links == ()
    assert math.isinf(plan.lookahead_s)
    assert set(plan.owner.values()) == {0}


# -- window arithmetic and merging ------------------------------------------


def test_next_window_arithmetic():
    assert next_window([None, None], 1e-6) is None
    assert next_window([3.0, None, 2.0], 1e-6) == 2.0 + 1e-6
    assert next_window([5.0], math.inf) == math.inf


def test_exclusive_until_is_one_ulp_below():
    end = 1.25e-3
    assert exclusive_until(end) < end
    assert math.nextafter(exclusive_until(end), math.inf) == end


def test_merge_shard_traces_is_deterministic():
    shard_a = [(1.0, 16, "hop", "tor0-0"), (3.0, 32, "deliver", "host0-0-0")]
    shard_b = [(1.0, 17, "hop", "agg1-0"), (2.0, 48, "drop", "core0-0")]
    merged = merge_shard_traces([shard_a, shard_b])
    assert merged == sorted(shard_a + shard_b, key=lambda r: (r[0], r[1]))
    assert merge_shard_traces([shard_b, shard_a]) == merged
    assert trace_digest(merged) == trace_digest(list(merged))


# -- engine equivalence (the tentpole invariant) ----------------------------


def _assert_equivalent(workload, shards, inline=True):
    single = simulate_fabric(workload)
    sharded = simulate_fabric_sharded(workload, shards=shards, inline=inline)
    assert sharded.records == single.records, (
        f"trace mismatch at shards={shards} inline={inline}"
    )
    assert sharded.metrics == single.metrics, (
        f"metrics mismatch at shards={shards} inline={inline}"
    )
    return single, sharded


def test_equivalence_healthy_fabric_all_shard_counts():
    workload = FabricWorkload(fabric="fat-tree", k=4, n_requests=800,
                              duration_s=1e-3, seed=3)
    for shards in (1, 2, 3, 4):
        single, sharded = _assert_equivalent(workload, shards)
    assert sharded.diagnostics["shards"] == 4
    assert sharded.diagnostics["boundary_events"] > 0
    assert single.metrics["delivered"] == workload.n_requests


def test_equivalence_leaf_spine():
    healthy = FabricWorkload(fabric="leaf-spine", n_spines=4, n_leaves=8,
                             hosts_per_leaf=4, n_requests=600,
                             duration_s=1e-3, seed=5)
    faulted = FabricWorkload(
        fabric="leaf-spine", n_spines=4, n_leaves=8, hosts_per_leaf=4,
        n_requests=600, duration_s=1e-3, seed=6,
        fault_specs=(
            FaultSpec(LINK_FLAP, (("leaf0", "spine0"), ("leaf5", "spine2")),
                      mtbf_s=3e-4, mttr_s=2e-4, end_s=1e-3),
            FaultSpec(SWITCH_CRASH, ("spine1",),
                      mtbf_s=4e-4, mttr_s=3e-4, end_s=1e-3),
        ),
    )
    for workload in (healthy, faulted):
        for shards in (2, 4):
            single, _ = _assert_equivalent(workload, shards)
    assert single.metrics["fault_events"] > 0


def _random_fault_specs(rng, fabric, boundary_links, duration_s):
    """A randomized bounded fault schedule biased toward boundary links."""
    switch_links = [
        (a, b) for a, b in fabric.graph.edges
        if "host" not in a and "host" not in b
    ]
    specs = []
    # Always stress at least one boundary link: a fault there must
    # invalidate *both* endpoint shards' views simultaneously.
    boundary = rng.sample(boundary_links, k=min(2, len(boundary_links)))
    specs.append(FaultSpec(
        LINK_FLAP, tuple(boundary),
        mtbf_s=duration_s / rng.uniform(2.0, 5.0),
        mttr_s=duration_s / rng.uniform(3.0, 8.0),
        end_s=duration_s,
    ))
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            targets = tuple(
                tuple(link) for link in rng.sample(switch_links, k=2)
            )
            kind = LINK_FLAP
        else:
            switches = [n for n in fabric.switches if "core" not in n]
            targets = tuple(rng.sample(switches, k=1))
            kind = SWITCH_CRASH
        specs.append(FaultSpec(
            kind, targets,
            mtbf_s=duration_s / rng.uniform(1.5, 4.0),
            mttr_s=duration_s / rng.uniform(2.0, 6.0),
            start_s=rng.uniform(0.0, duration_s / 4),
            end_s=duration_s,
        ))
    return tuple(specs)


@pytest.mark.parametrize("schedule_seed", [0, 1, 2, 3])
def test_equivalence_randomized_fault_schedules(schedule_seed):
    rng = random.Random(1000 + schedule_seed)
    fabric = fat_tree(4)
    plan = partition_fabric(fabric, 2, _latency_fn)
    workload = FabricWorkload(
        fabric="fat-tree", k=4, n_requests=700, duration_s=1e-3,
        seed=20 + schedule_seed,
        fault_specs=_random_fault_specs(
            rng, fabric, list(plan.boundary_links), 1e-3
        ),
    )
    single, _ = _assert_equivalent(workload, 2)
    _assert_equivalent(workload, 4)
    # The schedule must actually bite for the case to mean anything.
    assert single.metrics["fault_events"] > 0


def test_equivalence_fork_mode():
    single, sharded = _assert_equivalent(GOLDEN_WORKLOAD, 2, inline=False)
    assert sharded.diagnostics["engine"] == "sharded-fork"
    assert sharded.diagnostics["rounds"] > 0


def test_golden_trace_digest_pinned():
    single = simulate_fabric(GOLDEN_WORKLOAD)
    sharded = simulate_fabric_sharded(GOLDEN_WORKLOAD, shards=4, inline=True)
    assert single.metrics["trace_sha256"] == GOLDEN_SHA256
    assert sharded.metrics["trace_sha256"] == GOLDEN_SHA256
    assert trace_digest(single.records) == GOLDEN_SHA256


def test_equivalence_with_hop_records():
    workload = FabricWorkload(fabric="fat-tree", k=4, n_requests=300,
                              duration_s=1e-3, seed=9)
    single = simulate_fabric(workload, record_hops=True)
    sharded = simulate_fabric_sharded(
        workload, shards=3, inline=True, record_hops=True
    )
    assert sharded.records == single.records
    assert any(kind == "hop" for _, _, kind, _ in single.records)


def test_k8_fault_hop_trace_pinned():
    single = simulate_fabric(K8_HOPS_WORKLOAD, record_hops=True)
    assert single.metrics["trace_sha256"] == K8_HOPS_SHA256
    assert single.metrics["fault_events"] > 0
    sharded = simulate_fabric_sharded(
        K8_HOPS_WORKLOAD, shards=4, inline=True, record_hops=True
    )
    assert sharded.records == single.records


# -- the per-epoch surviving-uplink cache -----------------------------------


class _UncachedContext(_ShardContext):
    """Filters uplinks afresh on every hop through the public API."""

    __slots__ = ()

    def _up(self, a, b):
        return self.fabric.link_is_up(a, b)

    def _surviving(self, node, ups):
        return [up for up in ups if self.fabric.link_is_up(node, up)]


_CACHE_WORKLOADS = {
    "fat-tree": FabricWorkload(fabric="fat-tree", k=4),
    "leaf-spine": FabricWorkload(fabric="leaf-spine", n_spines=4,
                                 n_leaves=3, hosts_per_leaf=2),
}


@st.composite
def _state_changes(draw):
    """A fabric kind plus a random fail/restore sequence on its switches."""
    kind = draw(st.sampled_from(sorted(_CACHE_WORKLOADS)))
    fabric, _tables = _structure(_shape(_CACHE_WORKLOADS[kind]))
    links = sorted(
        fabric.link_key(a, b) for a, b in fabric.graph.edges
        if "host" not in a and "host" not in b
    )
    switches = fabric.switches
    op = st.one_of(
        st.tuples(st.sampled_from(("fail_link", "restore_link")),
                  st.sampled_from(links)),
        st.tuples(st.sampled_from(("fail_node", "restore_node")),
                  st.sampled_from(switches).map(lambda node: (node,))),
    )
    return kind, draw(st.lists(op, min_size=1, max_size=12))


@given(changes=_state_changes(), rid=st.integers(0, 2**20),
       hop=st.integers(0, 11))
@settings(max_examples=60, deadline=None)
def test_next_hop_matches_uncached_filter(changes, rid, hop):
    kind, ops = changes
    workload = _CACHE_WORKLOADS[kind]
    shared, tables = _structure(_shape(workload))
    fabric = _fabric_view(shared)
    cached = _ShardContext(None, fabric, tables, workload, owner=None,
                           shard_id=0, record_hops=False)
    uncached = _UncachedContext(None, fabric, tables, workload, owner=None,
                                shard_id=0, record_hops=False)
    nodes = sorted(tables.coords)
    for name, args in ops:
        getattr(fabric, name)(*args)
        for node in nodes:
            for dst in tables.hosts:
                if dst != node:
                    assert (cached.next_hop(node, dst, rid, hop)
                            == uncached.next_hop(node, dst, rid, hop))


# -- workload validation ----------------------------------------------------


def test_unbounded_fault_spec_rejected():
    with pytest.raises(SimulationError, match="never quiesces"):
        FabricWorkload(
            fabric="fat-tree", k=4,
            fault_specs=(
                FaultSpec(SWITCH_CRASH, ("agg0-0",),
                          mtbf_s=1e-4, mttr_s=1e-4),
            ),
        )


def test_workload_validation_errors():
    with pytest.raises(SimulationError):
        FabricWorkload(fabric="clos")
    with pytest.raises(SimulationError):
        FabricWorkload(n_requests=0)
    with pytest.raises(SimulationError):
        FabricWorkload(max_hops=16)
    with pytest.raises(SimulationError):
        FabricWorkload(jitter=-0.1)


def test_x14_entrypoint_shard_count_invariance():
    from repro.runner import run_experiment

    config = {"k": 4, "n_requests": 500, "duration_s": 1e-3}
    baseline = run_experiment("X14", config={**config, "shards": 1})
    assert baseline.ok, baseline.error
    for shards in (2, 4):
        result = run_experiment(
            "X14", config={**config, "shards": shards, "inline": True}
        )
        assert result.ok, result.error
        assert (
            result.metrics["trace_sha256"]
            == baseline.metrics["trace_sha256"]
        )
        assert (
            result.metrics["p99_latency_us"]
            == baseline.metrics["p99_latency_us"]
        )
