"""Tests for device models and the 2016 catalog."""

import pytest

from repro.errors import ModelError
from repro.node import (
    ComputeDevice,
    DeviceKind,
    DeviceRegistry,
    Programmability,
    ProgrammingModel,
    arria10_fpga,
    default_registry,
    inference_asic,
    nvidia_k80,
    truenorth_neuro,
    xeon_e5,
)


def _minimal_device(**overrides) -> ComputeDevice:
    params = dict(
        name="dev",
        kind=DeviceKind.CPU,
        peak_ops_per_s=1e12,
        mem_bw_bytes_per_s=1e11,
        tdp_w=100.0,
        idle_w=20.0,
        price_usd=1000.0,
        programmability=Programmability(ProgrammingModel.OPENMP, 1.0),
    )
    params.update(overrides)
    return ComputeDevice(**params)


def _ops_per_joule(device):
    """Peak energy efficiency at TDP."""
    return device.peak_ops_per_s / device.tdp_w

class TestComputeDevice:
    def test_ridge_intensity(self):
        dev = _minimal_device(peak_ops_per_s=1e12, mem_bw_bytes_per_s=1e11)
        assert dev.ridge_intensity == pytest.approx(10.0)

    def test_idle_above_tdp_rejected(self):
        with pytest.raises(ModelError):
            _minimal_device(idle_w=200.0, tdp_w=100.0)

    def test_zero_peak_rejected(self):
        with pytest.raises(ModelError):
            _minimal_device(peak_ops_per_s=0.0)

    def test_effective_peak_native_vs_portable(self):
        dev = _minimal_device(
            efficiency=0.8,
            programmability=Programmability(
                ProgrammingModel.CUDA, 4.0,
                portable_models=(ProgrammingModel.OPENCL,),
                portable_efficiency=0.5,
            ),
        )
        native = dev.effective_peak(ProgrammingModel.CUDA)
        portable = dev.effective_peak(ProgrammingModel.OPENCL)
        assert native == pytest.approx(0.8e12)
        assert portable == pytest.approx(0.4e12)

    def test_effective_peak_unsupported_raises(self):
        dev = _minimal_device()
        with pytest.raises(ModelError):
            dev.effective_peak(ProgrammingModel.SPIKE)


class TestRegistry:
    def test_add_and_get(self):
        reg = DeviceRegistry()
        reg.add(_minimal_device(name="a"))
        assert reg.get("a").name == "a"

    def test_duplicate_rejected(self):
        reg = DeviceRegistry()
        reg.add(_minimal_device(name="a"))
        with pytest.raises(ModelError):
            reg.add(_minimal_device(name="a"))

    def test_unknown_rejected(self):
        with pytest.raises(ModelError):
            DeviceRegistry().get("ghost")

    def test_of_kind_filters(self):
        reg = default_registry()
        gpus = reg.of_kind(DeviceKind.GPU)
        assert {d.name for d in gpus} == {"nvidia-k80", "nvidia-p100"}

    def test_iteration_is_name_sorted(self):
        reg = default_registry()
        names = [d.name for d in reg]
        assert names == sorted(names)


class TestCatalogShape:
    """The catalog must encode the paper's qualitative claims."""

    def test_catalog_has_all_kinds(self):
        kinds = {d.kind for d in default_registry()}
        assert kinds == set(DeviceKind)

    def test_gpu_peak_exceeds_cpu(self):
        assert nvidia_k80().peak_ops_per_s > 3 * xeon_e5().peak_ops_per_s

    def test_fpga_energy_efficiency_beats_cpu_and_gpu(self):
        # §V.B R4: specialized hardware promises 10x energy efficiency.
        fpga = _ops_per_joule(arria10_fpga())
        assert fpga > 5 * _ops_per_joule(xeon_e5())
        assert fpga > _ops_per_joule(nvidia_k80())

    def test_neuromorphic_is_the_ops_per_joule_champion(self):
        neuro = truenorth_neuro()
        for dev in default_registry():
            if dev.name != neuro.name:
                assert _ops_per_joule(neuro) > _ops_per_joule(dev)

    def test_fpga_port_effort_is_the_worst_mainstream_barrier(self):
        # §IV.C: HDL is the hardest mainstream model; neuromorphic worse still.
        fpga_pm = arria10_fpga().programmability.port_effort_person_months
        assert fpga_pm > nvidia_k80().programmability.port_effort_person_months
        assert fpga_pm > xeon_e5().programmability.port_effort_person_months
        assert (
            truenorth_neuro().programmability.port_effort_person_months > fpga_pm
        )

    def test_cuda_is_vendor_locked_openmp_is_not(self):
        assert nvidia_k80().programmability.vendor_locked
        assert not xeon_e5().programmability.vendor_locked

    def test_asic_has_highest_peak(self):
        asic = inference_asic()
        assert asic.peak_ops_per_s == max(
            d.peak_ops_per_s for d in default_registry()
        )

    def test_cpu_supports_opencl_portably(self):
        assert xeon_e5().effective_peak(ProgrammingModel.OPENCL) > 0
