"""Sharded conservative-time DES: the cut, windows, equivalence.

The load-bearing guarantee of :mod:`repro.engine.sharded` is not "close
enough": the merged sharded trace and every end metric must be
**bit-for-bit identical** to the single-process engine at any shard
count, in inline and fork mode, with and without injected faults --
including faults on boundary links, where both endpoint shards must
observe the identical fault timeline. These tests pin that equivalence
(plus a golden trace digest in the ``_perfref`` style) and the
cut/window/merge pieces it rests on.
"""

import hashlib
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.faults import LINK_FLAP, SWITCH_CRASH, FaultSpec
from repro.engine.sharded import (
    exclusive_until,
    merge_shard_traces,
    next_window,
    trace_digest,
)
from repro.errors import SimulationError
from repro.workloads.fabricsim import (
    FabricWorkload,
    _cut,
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


# sha256 over (sorted owner map, boundary-link count, repr(lookahead))
# at every shard count from 1 to the shape's pod (leaf) count, recorded
# from the name-parsing partitioner that the structural cut replaced.
# A change here moves which shard owns which node; recompute only for
# a deliberate change of the cut rule:
#   PYTHONPATH=src python tests/test_engine_sharded.py
CUT_SHA256 = {
    ("fat-tree", 4):
        "87d5416012c403dd67001d5531e4afbb91920f82f96787af85dacef579ab1b9b",
    ("fat-tree", 8):
        "5275896c6d3f290961f2202f15a2a88e1dbd0c78fc396ead180da3627d4d686f",
    ("fat-tree", 12):
        "c0343d51ce2c1afe7dd949f943ed5b366fb94884a0316b47746644f86489226c",
    ("fat-tree", 30):
        "ebaa7001a20f15d3a016cedad306a6ffa3d3477745ed9539befe358796494252",
    ("leaf-spine", 4, 8, 8):
        "55f723bf21600e44251937d25db6b8a054843b1b216ac7e4690b36c6d3185aa2",
    ("leaf-spine", 3, 12, 2):
        "6ff4ae84a8c76896e25cdd08e550c4b249ba6c4d9d31ff59d3e91e6159ae245e",
    ("leaf-spine", 16, 24, 4):
        "55b838291e0b172b6eb5e02b2dd50e4fe6486087d365e635d8eeba342426f640",
}


def _workload_of(shape):
    if shape[0] == "fat-tree":
        return FabricWorkload(fabric="fat-tree", k=shape[1])
    n_spines, n_leaves, hosts_per_leaf = shape[1:]
    return FabricWorkload(fabric="leaf-spine", n_spines=n_spines,
                          n_leaves=n_leaves, hosts_per_leaf=hosts_per_leaf)


def _cut_of(workload, n_shards):
    fabric, tables = _structure(_shape(workload))
    return _cut(workload, tables, fabric, n_shards)


def _cut_digest(shape):
    """The digest of ``shape``'s cut at every shard count it allows."""
    workload = _workload_of(shape)
    n_groups = shape[1] if shape[0] == "fat-tree" else shape[2]
    digest = hashlib.sha256()
    for n_shards in range(1, n_groups + 1):
        owner, boundary_links, lookahead_s = _cut_of(workload, n_shards)
        row = [sorted(owner.items()), len(boundary_links), repr(lookahead_s)]
        digest.update(json.dumps(row).encode())
    return digest.hexdigest()


# -- the cut ----------------------------------------------------------------


@pytest.mark.parametrize("shape", sorted(CUT_SHA256), ids=str)
def test_cut_matches_pinned_owner_maps(shape):
    assert _cut_digest(shape) == CUT_SHA256[shape]


def test_fat_tree_partition_is_pod_aligned():
    workload = FabricWorkload(fabric="fat-tree", k=4)
    owner, boundary_links, lookahead_s = _cut_of(workload, 2)
    # Every pod's tors, aggs and hosts share one shard: no tor/agg/host
    # link crosses the cut, so only agg--core links are boundary links.
    for a, b in boundary_links:
        assert "core" in a or "core" in b, (a, b)
    for node, shard in owner.items():
        if not node.startswith("core"):
            pod = int(re.match(r"[a-z]+(\d+)", node).group(1))
            assert shard == pod * 2 // 4, node
    # All four pods are assigned and both shards are non-empty.
    assert sorted(set(owner.values())) == [0, 1]
    fabric, _tables = _structure(_shape(workload))
    assert len(owner) == fabric.graph.number_of_nodes()
    assert lookahead_s == workload.core_latency_s


def test_fat_tree_partition_rejects_more_shards_than_pods():
    with pytest.raises(SimulationError, match="4 pods into 5 shards"):
        _cut_of(FabricWorkload(fabric="fat-tree", k=4), 5)
    with pytest.raises(SimulationError):
        _cut_of(FabricWorkload(fabric="fat-tree", k=4), 0)


def test_leaf_spine_partition_keeps_leaf_with_hosts():
    workload = FabricWorkload(fabric="leaf-spine", n_spines=4, n_leaves=4,
                              hosts_per_leaf=2)
    owner, boundary_links, _lookahead = _cut_of(workload, 2)
    for node, shard in owner.items():
        if node.startswith("host"):
            leaf = "leaf" + node[len("host"):].split("-")[0]
            assert shard == owner[leaf], node
    for a, b in boundary_links:
        assert "spine" in a or "spine" in b, (a, b)
    with pytest.raises(SimulationError, match="4 leaves into 5 shards"):
        _cut_of(workload, 5)


def test_partition_rejects_nonpositive_boundary_latency():
    # The fat-tree cut crosses only agg--core links, so the core latency
    # is the lookahead; a zero or negative one is refused before any cut.
    for latency in (0.0, -1e-6):
        with pytest.raises(SimulationError, match="core_latency_s"):
            _cut_of(FabricWorkload(fabric="fat-tree", k=4,
                                   core_latency_s=latency), 2)


def test_single_shard_cut_is_empty_with_infinite_lookahead():
    owner, boundary_links, lookahead_s = _cut_of(
        FabricWorkload(fabric="fat-tree", k=4), 1
    )
    assert boundary_links == ()
    assert math.isinf(lookahead_s)
    assert set(owner.values()) == {0}


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
    shape_only = FabricWorkload(fabric="fat-tree", k=4)
    fabric, _tables = _structure(_shape(shape_only))
    _owner, boundary_links, _lookahead = _cut_of(shape_only, 2)
    workload = FabricWorkload(
        fabric="fat-tree", k=4, n_requests=700, duration_s=1e-3,
        seed=20 + schedule_seed,
        fault_specs=_random_fault_specs(
            rng, fabric, list(boundary_links), 1e-3
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
    # The tier latencies bound the sharded lookahead, so each must be
    # positive and finite; NaN fails every check.
    bad_fields = [
        ("jitter", -0.1), ("jitter", math.nan), ("jitter", math.inf),
        ("duration_s", 0.0), ("duration_s", math.nan),
        ("duration_s", math.inf),
    ]
    for name in ("edge_latency_s", "agg_latency_s", "core_latency_s"):
        bad_fields += [(name, 0.0), (name, -1e-6), (name, math.nan),
                       (name, math.inf)]
    for name, value in bad_fields:
        with pytest.raises(SimulationError, match=name):
            FabricWorkload(**{name: value})


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


if __name__ == "__main__":
    for _shape_key in sorted(CUT_SHA256):
        print(_shape_key, _cut_digest(_shape_key))
