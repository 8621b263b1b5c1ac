"""Tests for the roofline execution model."""

import pytest

from repro.errors import ModelError
from repro.node import (
    Kernel,
    arria10_fpga,
    attainable_ops_per_s,
    execution_time_s,
    nvidia_k80,
    speedup,
    xeon_e5,
)


def _compute_kernel(ops=1e12) -> Kernel:
    """High-intensity kernel (e.g. dense ranking/DNN): 100 ops/byte."""
    return Kernel("dense", ops=ops, bytes_moved=ops / 100.0)


def _memory_kernel(ops=1e10) -> Kernel:
    """Low-intensity kernel (e.g. scan/selection): 0.25 ops/byte."""
    return Kernel("scan", ops=ops, bytes_moved=ops * 4.0)


class TestKernel:
    def test_intensity(self):
        assert _compute_kernel().intensity == pytest.approx(100.0)
        assert _memory_kernel().intensity == pytest.approx(0.25)

    def test_zero_bytes_is_infinite_intensity(self):
        k = Kernel("pure", ops=1e9, bytes_moved=0.0)
        assert k.intensity == float("inf")

    def test_scaled_preserves_intensity(self):
        k = _compute_kernel()
        k10 = k.scaled(10.0)
        assert k10.ops == 10 * k.ops
        assert k10.intensity == pytest.approx(k.intensity)

    def test_invalid_kernels_rejected(self):
        with pytest.raises(ModelError):
            Kernel("bad", ops=0.0, bytes_moved=1.0)
        with pytest.raises(ModelError):
            Kernel("bad", ops=1.0, bytes_moved=-1.0)
        with pytest.raises(ModelError):
            Kernel("bad", ops=1.0, bytes_moved=1.0, serial_fraction=1.5)
        with pytest.raises(ModelError):
            _compute_kernel().scaled(0.0)


class TestRoofline:
    def test_compute_bound_kernel_hits_compute_roof(self):
        cpu = xeon_e5()
        k = _compute_kernel()
        assert k.intensity >= cpu.ridge_intensity
        rate = attainable_ops_per_s(k, cpu)
        assert rate == pytest.approx(cpu.effective_peak())

    def test_memory_bound_kernel_hits_bandwidth_roof(self):
        cpu = xeon_e5()
        k = _memory_kernel()
        assert k.intensity < cpu.ridge_intensity
        rate = attainable_ops_per_s(k, cpu)
        assert rate == pytest.approx(cpu.mem_bw_bytes_per_s * k.intensity)

    def test_pure_compute_kernel_at_compute_roof(self):
        k = Kernel("pure", ops=1e9, bytes_moved=0.0)
        cpu = xeon_e5()
        assert attainable_ops_per_s(k, cpu) == pytest.approx(cpu.effective_peak())

    def test_gpu_beats_cpu_on_compute_bound(self):
        k = _compute_kernel()
        assert speedup(k, nvidia_k80(), xeon_e5()) > 3.0

    def test_fpga_advantage_vanishes_when_memory_bound(self):
        # The Arria 10 beats the CPU on compute-bound kernels but loses on
        # memory-bound ones (34 GB/s vs the Xeon's 120 GB/s).
        compute_gain = speedup(_compute_kernel(), arria10_fpga(), xeon_e5())
        memory_gain = speedup(_memory_kernel(1e12), arria10_fpga(), xeon_e5())
        assert compute_gain > 1.0
        assert memory_gain < 1.0

    def test_serial_fraction_caps_speedup(self):
        # Amdahl: with 50% serial work, even an infinite accelerator < 2x.
        k = Kernel("half-serial", ops=1e12, bytes_moved=1e10,
                   serial_fraction=0.5)
        assert speedup(k, nvidia_k80(), xeon_e5()) < 2.0

    def test_execution_time_includes_launch_overhead(self):
        k = Kernel("tiny", ops=1e6, bytes_moved=1e4)
        gpu = nvidia_k80()
        with_overhead = execution_time_s(k, gpu)
        without = execution_time_s(k, gpu, include_launch_overhead=False)
        assert with_overhead == pytest.approx(without + gpu.launch_overhead_s)

    def test_fpga_wins_energy_despite_losing_time(self):
        # The R4 story: FPGA is slower in wall clock than a GPU but far
        # better in joules on compute-bound streaming kernels.
        k = _compute_kernel()
        fpga, gpu = arria10_fpga(), nvidia_k80()
        assert execution_time_s(k, gpu) < execution_time_s(k, fpga)
        assert (execution_time_s(k, fpga) * fpga.tdp_w
                < execution_time_s(k, gpu) * gpu.tdp_w)
