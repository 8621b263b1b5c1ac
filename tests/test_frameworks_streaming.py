"""Tests for shuffle model, offload policies and the streaming executor."""

import pytest

from repro.errors import ModelError, PlanError, SchedulingError
from repro.frameworks import (
    ShuffleSpec,
    StreamRecord,
    StreamingExecutor,
    TumblingWindow,
    cpu_only,
    greedy_energy,
    greedy_time,
    shuffle_time_s,
)
from repro.analytics import default_blocks
from repro.network import fat_tree
from repro.node import accelerated_server, arria10_fpga, nvidia_k80, xeon_e5


class TestShuffleModel:
    def test_single_host_shuffle_is_free(self):
        spec = ShuffleSpec(1e9, 1, 10.0)
        assert shuffle_time_s(spec) == 0.0

    def test_scales_with_volume(self):
        small = shuffle_time_s(ShuffleSpec(1e9, 8, 10.0))
        large = shuffle_time_s(ShuffleSpec(4e9, 8, 10.0))
        assert large == pytest.approx(4 * small)

    def test_more_hosts_faster(self):
        few = shuffle_time_s(ShuffleSpec(8e9, 4, 10.0))
        many = shuffle_time_s(ShuffleSpec(8e9, 16, 10.0))
        assert many < few

    def test_locality_reduces_time(self):
        base = shuffle_time_s(ShuffleSpec(8e9, 8, 10.0))
        local = shuffle_time_s(ShuffleSpec(8e9, 8, 10.0), locality_fraction=0.5)
        assert local == pytest.approx(base / 2)

    def test_weak_bisection_binds(self):
        spec = ShuffleSpec(8e9, 8, 10.0)
        unconstrained = shuffle_time_s(spec)
        constrained = shuffle_time_s(spec, bisection_gbps=5.0)
        assert constrained > unconstrained

    def test_full_bisection_fabric_matches_nic_bound(self):
        # A fat-tree has full bisection: the NIC is the binding constraint.
        fabric = fat_tree(4)
        n = len(fabric.hosts)
        time = shuffle_time_s(
            ShuffleSpec(16e9, n, 10.0),
            bisection_gbps=fabric.bisection_bandwidth_gbps(),
        )
        expected = (16e9 * (n - 1) / n / n) / (10e9 / 8)
        assert time == pytest.approx(expected, rel=0.05)

    def test_validation(self):
        with pytest.raises(ModelError):
            ShuffleSpec(-1, 2, 10.0)
        with pytest.raises(ModelError):
            ShuffleSpec(1, 0, 10.0)
        with pytest.raises(ModelError):
            shuffle_time_s(ShuffleSpec(1, 2, 10.0), locality_fraction=1.0)
        with pytest.raises(ModelError):
            shuffle_time_s(ShuffleSpec(1, 2, 10.0), bisection_gbps=0.0)


class TestOffloadPolicies:
    def test_cpu_only_always_picks_cpu(self):
        server = accelerated_server(xeon_e5(), nvidia_k80())
        block = default_blocks().get("dense-gemm")
        assert cpu_only().choose(block, server, 10**6).name == "xeon-e5"

    def test_greedy_time_offloads_big_batches(self):
        server = accelerated_server(xeon_e5(), nvidia_k80())
        block = default_blocks().get("dense-gemm")
        assert greedy_time().choose(block, server, 10**7).name == "nvidia-k80"

    def test_greedy_time_keeps_tiny_batches_on_cpu(self):
        server = accelerated_server(xeon_e5(), nvidia_k80())
        block = default_blocks().get("dense-gemm")
        assert greedy_time().choose(block, server, 1).name == "xeon-e5"

    def test_greedy_energy_prefers_fpga(self):
        server = accelerated_server(xeon_e5(), arria10_fpga())
        block = default_blocks().get("dnn-inference")
        assert greedy_energy().choose(block, server, 10**6).name == "arria10-fpga"

    def test_unsupported_block_falls_back_to_cpu(self):
        server = accelerated_server(xeon_e5(), arria10_fpga())
        block = default_blocks().get("sort")  # GPU-only acceleration
        assert greedy_time().choose(block, server, 10**6).name == "xeon-e5"

    def test_invalid_policy_name(self):
        from repro.frameworks import OffloadPolicy

        with pytest.raises(ModelError):
            OffloadPolicy("quantum")

    def test_zero_records_rejected(self):
        server = accelerated_server(xeon_e5(), nvidia_k80())
        block = default_blocks().get("sort")
        with pytest.raises(SchedulingError):
            greedy_time().choose(block, server, 0)


def _records():
    # Two keys, events at t=0.5, 1.5, 2.5, ..., values equal to times.
    out = []
    for i in range(10):
        t = 0.5 + i
        out.append(StreamRecord(t, "a", 1))
        out.append(StreamRecord(t, "b", 2))
    return out


class TestWindows:
    def test_tumbling_assignment(self):
        window = TumblingWindow(5.0)
        assert window.assign(7.3) == [(5.0, 10.0)]
        assert window.assign(0.0) == [(0.0, 5.0)]

    def test_invalid_windows(self):
        with pytest.raises(PlanError):
            TumblingWindow(0.0)


class TestStreamingExecutor:
    def test_tumbling_sums(self):
        executor = StreamingExecutor(
            xeon_e5(), TumblingWindow(5.0), aggregate_fn=sum
        )
        report = executor.run(_records())
        by_key_window = {
            (r.key, r.window_start_s): r.value for r in report.results
        }
        # Key 'a': five events of value 1 in [0,5) and five in [5,10).
        assert by_key_window[("a", 0.0)] == 5
        assert by_key_window[("b", 5.0)] == 10

    def test_window_record_counts(self):
        executor = StreamingExecutor(
            xeon_e5(), TumblingWindow(10.0), aggregate_fn=sum
        )
        report = executor.run(_records())
        assert all(r.n_records == 10 for r in report.results)

    def test_late_records_dropped(self):
        executor = StreamingExecutor(
            xeon_e5(), TumblingWindow(5.0), aggregate_fn=sum,
            allowed_lateness_s=0.0,
        )
        records = [
            StreamRecord(10.0, "a", 1),
            StreamRecord(1.0, "a", 100),  # far behind the watermark
        ]
        report = executor.run(records)
        assert report.n_late_dropped == 1
        assert report.n_records_processed == 1

    def test_lateness_allowance_rescues_records(self):
        executor = StreamingExecutor(
            xeon_e5(), TumblingWindow(5.0), aggregate_fn=sum,
            allowed_lateness_s=60.0,
        )
        records = [StreamRecord(10.0, "a", 1), StreamRecord(1.0, "a", 100)]
        report = executor.run(records)
        assert report.n_late_dropped == 0

    def test_throughput_positive(self):
        executor = StreamingExecutor(
            xeon_e5(), TumblingWindow(5.0), aggregate_fn=sum
        )
        report = executor.run(_records())
        assert report.throughput_records_per_s > 0
        assert report.energy_j > 0

    def test_empty_stream(self):
        executor = StreamingExecutor(
            xeon_e5(), TumblingWindow(5.0), aggregate_fn=sum
        )
        report = executor.run([])
        assert report.results == []
        assert report.sim_time_s == 0.0

    def test_negative_event_time_rejected(self):
        with pytest.raises(PlanError):
            StreamRecord(-1.0, "k", 1)
