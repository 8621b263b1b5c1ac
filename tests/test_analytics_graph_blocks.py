"""Tests for the building-block registry."""

import pytest

from repro.analytics import (
    BlockCost,
    BlockRegistry,
    BuildingBlock,
    best_device_for_block,
    default_blocks,
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
