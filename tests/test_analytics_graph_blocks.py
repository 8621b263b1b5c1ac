"""Tests for graph kernels and the building-block registry."""

import networkx as nx
import pytest

from repro.analytics import (
    BlockCost,
    BlockRegistry,
    BuildingBlock,
    best_device_for_block,
    connected_components,
    default_blocks,
    pagerank,
)
from repro.errors import ModelError, RegistryError
from repro.node import (
    DeviceKind,
    arria10_fpga,
    inference_asic,
    nvidia_k80,
    truenorth_neuro,
    xeon_e5,
)


def _diamond():
    return {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}


class TestPagerank:
    def test_matches_networkx(self):
        graph = _diamond()
        ours = pagerank(graph)
        theirs = nx.pagerank(nx.DiGraph(graph), alpha=0.85)
        for node in graph:
            assert ours[node] == pytest.approx(theirs[node], rel=1e-4)

    def test_sums_to_one(self):
        ranks = pagerank(_diamond())
        assert sum(ranks.values()) == pytest.approx(1.0)

    def test_sink_collects_rank(self):
        ranks = pagerank(_diamond())
        assert ranks["d"] == max(ranks.values())

    def test_validation(self):
        with pytest.raises(ModelError):
            pagerank({})
        with pytest.raises(ModelError):
            pagerank({"a": ["ghost"]})
        with pytest.raises(ModelError):
            pagerank(_diamond(), damping=1.0)


class TestBfsAndComponents:
    def test_components(self):
        graph = {"a": ["b"], "b": [], "x": ["y"], "y": [], "lone": []}
        comps = connected_components(graph)
        assert sorted(len(c) for c in comps) == [1, 2, 2]
        assert comps[0] in ({"a", "b"}, {"x", "y"})

class TestBlockRegistry:
    def test_default_blocks_present(self):
        registry = default_blocks()
        for name in ("regex-extract", "dense-gemm", "hash-join", "sort"):
            assert name in registry
        assert len(registry) >= 8

    def test_duplicate_rejected(self):
        registry = BlockRegistry()
        block = BuildingBlock("x", BlockCost(1, 1))
        registry.register(block)
        with pytest.raises(RegistryError):
            registry.register(block)

    def test_unknown_rejected(self):
        with pytest.raises(RegistryError):
            BlockRegistry().get("ghost")

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ModelError):
            BuildingBlock("x", BlockCost(1, 1), {DeviceKind.GPU: 1.5})


class TestBlockExecution:
    def test_cpu_always_runs_blocks(self):
        registry = default_blocks()
        cpu = xeon_e5()
        for name in registry.names():
            assert registry.get(name).runs_on(cpu)

    def test_asic_only_runs_supported_blocks(self):
        registry = default_blocks()
        asic = inference_asic()
        assert registry.get("dnn-inference").runs_on(asic)
        assert not registry.get("regex-extract").runs_on(asic)

    def test_unsupported_time_raises(self):
        block = default_blocks().get("regex-extract")
        with pytest.raises(ModelError):
            block.time_s(inference_asic(), 1000)

    def test_fpga_wins_regex_gpu_wins_gemm(self):
        # The R10 mapping the catalog is designed to express.
        registry = default_blocks()
        devices = [xeon_e5(), nvidia_k80(), arria10_fpga(), inference_asic()]
        regex_best = best_device_for_block(
            registry.get("regex-extract"), devices
        )
        gemm_best = best_device_for_block(registry.get("dense-gemm"), devices)
        assert regex_best.kind == DeviceKind.FPGA
        assert gemm_best.kind in (DeviceKind.GPU, DeviceKind.ASIC)

    def test_energy_objective_prefers_low_power(self):
        registry = default_blocks()
        devices = [xeon_e5(), nvidia_k80(), arria10_fpga()]
        block = registry.get("dnn-inference")
        energy_best = best_device_for_block(devices=devices, block=block,
                                            objective="energy")
        assert energy_best.kind == DeviceKind.FPGA

    def test_throughput_positive_and_scales(self):
        block = default_blocks().get("filter-scan")
        cpu = xeon_e5()
        assert block.throughput_records_per_s(cpu) > 0

    def test_bad_objective(self):
        with pytest.raises(ModelError):
            best_device_for_block(
                default_blocks().get("sort"), [xeon_e5()], objective="vibes"
            )

    def test_no_capable_device(self):
        block = BuildingBlock("cpu-only", BlockCost(1, 1))
        with pytest.raises(ModelError):
            best_device_for_block(block, [truenorth_neuro()])

    def test_block_cost_validation(self):
        with pytest.raises(ModelError):
            BlockCost(0, 1)
        with pytest.raises(ModelError):
            BlockCost(1, 1, serial_fraction=2.0)
        with pytest.raises(ModelError):
            BlockCost(1, 1).kernel("x", 0)
