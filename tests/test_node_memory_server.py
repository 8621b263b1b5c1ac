"""Tests for memory hierarchy, server assembly and programmability models."""

import pytest

from repro.errors import ModelError
from repro.node import (
    AbstractionMatrix,
    MemoryHierarchy,
    NIC_CATALOG,
    PortingStrategy,
    ProgrammingModel,
    Server,
    accelerated_server,
    achievable_throughput_fraction,
    arria10_fpga,
    default_hierarchy,
    default_registry,
    dram,
    hls_uplift_scenario,
    nvidia_k80,
    port_effort_person_months,
    ssd,
    xeon_e5,
)


class TestMemoryHierarchy:
    def test_orders_must_be_fastest_first(self):
        with pytest.raises(ModelError):
            MemoryHierarchy([ssd(), dram()])

    def test_total_cost_positive(self):
        assert default_hierarchy().total_cost_usd > 0


class TestServer:
    def test_first_device_must_be_cpu(self):
        with pytest.raises(ModelError):
            Server("bad", [nvidia_k80()], NIC_CATALOG[10.0])

    def test_price_sums_components(self):
        srv = accelerated_server(xeon_e5(), nvidia_k80())
        expected = (
            xeon_e5().price_usd
            + nvidia_k80().price_usd
            + NIC_CATALOG[10.0].price_usd
            + srv.memory.total_cost_usd
            + srv.chassis_usd
        )
        assert srv.price_usd == pytest.approx(expected)

    def test_accelerated_server_device_lists(self):
        srv = accelerated_server(xeon_e5(), nvidia_k80(), count=2)
        assert srv.cpu.name == "xeon-e5"
        assert len(srv.devices) == 3

    def test_accelerator_count_validated(self):
        with pytest.raises(ModelError):
            accelerated_server(xeon_e5(), nvidia_k80(), count=0)


class TestPortingStrategies:
    def test_cpu_only_costs_nothing(self):
        strategy = PortingStrategy("cpu_only")
        devices = list(default_registry())
        assert port_effort_person_months(strategy, 10, devices) == 0.0

    def test_native_everywhere_is_most_expensive(self):
        devices = list(default_registry())
        native = port_effort_person_months(
            PortingStrategy("native_everywhere"), 10, devices
        )
        portable = port_effort_person_months(
            PortingStrategy("portable_kernel"), 10, devices
        )
        assert native > 10 * portable

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ModelError):
            PortingStrategy("wishful")

    def test_portable_strategy_cannot_reach_asic(self):
        from repro.node import inference_asic

        frac = achievable_throughput_fraction(
            PortingStrategy("portable_kernel"), inference_asic()
        )
        assert frac == 0.0

    def test_portable_strategy_reaches_gpu_at_reduced_rate(self):
        frac = achievable_throughput_fraction(
            PortingStrategy("portable_kernel"), nvidia_k80()
        )
        assert 0.0 < frac < 1.0


class TestAbstractionMatrix:
    def test_opencl_reaches_most_devices(self):
        matrix = AbstractionMatrix(list(default_registry()))
        best_model, reached, _ = matrix.best_universal_model()
        assert best_model == ProgrammingModel.OPENCL
        assert reached >= 4

    def test_no_model_reaches_everything(self):
        # The §IV.C claim: there is no common abstraction for all hardware.
        matrix = AbstractionMatrix(list(default_registry()))
        _, reached, _ = matrix.best_universal_model()
        assert reached < len(matrix.devices)

    def test_fragmentation_index_between_bounds(self):
        matrix = AbstractionMatrix(list(default_registry()))
        index = matrix.fragmentation_index()
        n = len(matrix.devices)
        assert 1.0 / n <= index <= 1.0
        # With 7 devices needing >= 3 models, fragmentation is material.
        assert index >= 3.0 / n

    def test_native_coverage_is_full(self):
        matrix = AbstractionMatrix([nvidia_k80()])
        assert matrix.coverage(ProgrammingModel.CUDA) == {"nvidia-k80": 1.0}

    def test_empty_matrix_rejected(self):
        with pytest.raises(ModelError):
            AbstractionMatrix([])


class TestHlsUplift:
    def test_uplift_improves_fpga_portability(self):
        fpga = arria10_fpga()
        better = hls_uplift_scenario(fpga)
        assert (
            better.programmability.port_effort_person_months
            < fpga.programmability.port_effort_person_months
        )
        assert (
            better.programmability.portable_efficiency
            > fpga.programmability.portable_efficiency
        )

    def test_uplift_validates_efficiency(self):
        with pytest.raises(ModelError):
            hls_uplift_scenario(arria10_fpga(), improved_efficiency=1.5)
