"""Tests for jobs, DAG validation and heterogeneous schedulers."""

import pytest

from repro.cluster import uniform_cluster
from repro.errors import SchedulingError
from repro.network import leaf_spine
from repro.node import (
    accelerated_server,
    arria10_fpga,
    inference_asic,
    nvidia_k80,
    xeon_e5,
)
from repro.scheduler import (
    Executor,
    HeterogeneousScheduler,
    Job,
    Task,
    chain_job,
    fork_join_job,
)


def _hetero_executors():
    return [
        Executor("cpu0", "hostA", xeon_e5()),
        Executor("gpu0", "hostA", nvidia_k80()),
        Executor("cpu1", "hostB", xeon_e5()),
        Executor("fpga0", "hostB", arria10_fpga()),
    ]


class TestJobModel:
    def test_chain_job_shape(self):
        job = chain_job("etl", ["filter-scan", "hash-join", "sort"], 10_000)
        assert len(job.tasks) == 3
        assert job.topological_order() == ["etl-0", "etl-1", "etl-2"]

    def test_fork_join_shape(self):
        job = fork_join_job("fj", 4, "dense-gemm", "hash-aggregate", 40_000)
        assert len(job.tasks) == 6
        order = job.topological_order()
        assert order[0] == "fj-src"
        assert order[-1] == "fj-join"

    def test_cycle_detected(self):
        job = Job("cyclic")
        job.add(Task("a", "sort", 10, deps=["b"]))
        job.add(Task("b", "sort", 10, deps=["a"]))
        with pytest.raises(SchedulingError):
            job.validate()

    def test_unknown_dep_detected(self):
        job = Job("bad")
        job.add(Task("a", "sort", 10, deps=["ghost"]))
        with pytest.raises(SchedulingError):
            job.validate()

    def test_self_dep_rejected(self):
        with pytest.raises(SchedulingError):
            Task("a", "sort", 10, deps=["a"])

    def test_duplicate_task_rejected(self):
        job = Job("dup")
        job.add(Task("a", "sort", 10))
        with pytest.raises(SchedulingError):
            job.add(Task("a", "sort", 10))

    def test_empty_job_rejected(self):
        with pytest.raises(SchedulingError):
            Job("empty").validate()

    def test_topological_order_deterministic(self):
        job = fork_join_job("fj", 3, "sort", "sort", 1000)
        assert job.topological_order() == job.topological_order()


class TestSchedulers:
    def test_all_algorithms_produce_valid_schedules(self):
        scheduler = HeterogeneousScheduler(_hetero_executors())
        job = fork_join_job("fj", 6, "dense-gemm", "hash-aggregate", 600_000)
        for algorithm in ("fifo", "greedy_eft", "heft"):
            schedule = getattr(scheduler, algorithm)(job)
            schedule.validate()
            assert schedule.makespan_s > 0

    def test_heft_beats_fifo_on_heterogeneous_pool(self):
        # E10's headline: heterogeneity-aware placement wins.
        scheduler = HeterogeneousScheduler(_hetero_executors())
        job = fork_join_job("fj", 8, "dense-gemm", "hash-aggregate", 4_000_000)
        fifo = scheduler.fifo(job).makespan_s
        heft = scheduler.heft(job).makespan_s
        assert heft < fifo

    def test_greedy_eft_at_least_as_good_as_fifo(self):
        scheduler = HeterogeneousScheduler(_hetero_executors())
        job = chain_job(
            "etl", ["regex-extract", "dense-gemm", "sort"], 1_000_000
        )
        assert (
            scheduler.greedy_eft(job).makespan_s
            <= scheduler.fifo(job).makespan_s + 1e-9
        )

    def test_gemm_lands_on_accelerator_under_heft(self):
        scheduler = HeterogeneousScheduler(_hetero_executors())
        job = chain_job("gemm", ["dense-gemm"], 5_000_000)
        schedule = scheduler.heft(job)
        device = schedule.assignments["gemm-0"].executor.device
        assert device.kind.value in ("gpu", "fpga")

    def test_cpu_only_block_never_lands_on_asic(self):
        executors = [
            Executor("cpu0", "h", xeon_e5()),
            Executor("asic0", "h", inference_asic()),
        ]
        scheduler = HeterogeneousScheduler(executors)
        job = chain_job("regex", ["regex-extract"], 100_000)
        schedule = scheduler.heft(job)
        assert schedule.assignments["regex-0"].executor.name == "cpu0"

    def test_unschedulable_job_raises(self):
        from repro.node import truenorth_neuro

        executors = [Executor("neuro0", "h", truenorth_neuro())]
        scheduler = HeterogeneousScheduler(executors)
        job = chain_job("sortjob", ["sort"], 1000)
        with pytest.raises(SchedulingError):
            scheduler.heft(job)

    def test_communication_cost_matters(self):
        # With huge outputs and slow links, HEFT keeps the chain co-located.
        executors = _hetero_executors()
        slow = HeterogeneousScheduler(executors, link_gbps=0.1)
        job = chain_job(
            "pipe", ["hash-aggregate", "hash-aggregate"], 100_000,
            output_bytes=1e9,
        )
        schedule = slow.heft(job)
        hosts = {a.executor.host for a in schedule.assignments.values()}
        assert len(hosts) == 1

    def test_critical_path_ablation_runs(self):
        scheduler = HeterogeneousScheduler(_hetero_executors())
        job = fork_join_job("fj", 5, "dense-gemm", "hash-aggregate", 1_000_000)
        schedule = scheduler.critical_path_order(job)
        schedule.validate()

    def test_empty_executor_pool_rejected(self):
        with pytest.raises(SchedulingError):
            HeterogeneousScheduler([])

    def test_bad_link_rate_rejected(self):
        with pytest.raises(SchedulingError):
            HeterogeneousScheduler(_hetero_executors(), link_gbps=0.0)


class TestClusterExecutors:
    def test_schedule_on_cluster_pool(self):
        cluster = uniform_cluster(
            leaf_spine(2, 2, 2),
            lambda: accelerated_server(xeon_e5(), arria10_fpga()),
        )
        executors = [
            Executor(f"{host}/{device.name}#{index}", host, device)
            for host in cluster.hosts
            for index, device in enumerate(cluster.server_at(host).devices)
        ]
        scheduler = HeterogeneousScheduler(executors)
        job = fork_join_job("fj", 8, "regex-extract", "hash-aggregate", 800_000)
        schedule = scheduler.heft(job)
        schedule.validate()
        fpga_used = any(
            a.executor.device.kind.value == "fpga"
            for a in schedule.assignments.values()
        )
        assert fpga_used
