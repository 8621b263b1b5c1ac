"""Property-based tests for datasets, dataflow execution, analytics
kernels and the schedulers."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import tokenize
from repro.cluster import uniform_cluster
from repro.core import greedy_portfolio, optimize_portfolio, score_all
from repro.frameworks import BatchExecutor, PartitionedDataset, Plan
from repro.network import leaf_spine
from repro.node import commodity_server, xeon_e5
from repro.scheduler import HeterogeneousScheduler, Executor, Job, Task
from repro.survey import generate_corpus


def _cluster():
    return uniform_cluster(
        leaf_spine(2, 2, 2), lambda: commodity_server(xeon_e5())
    )


_CLUSTER = _cluster()
_SCORED = score_all(generate_corpus())


class TestDatasetProperties:
    @given(
        records=st.lists(st.integers(), min_size=0, max_size=200),
        n_partitions=st.integers(min_value=1, max_value=16),
    )
    def test_from_records_preserves_multiset(self, records, n_partitions):
        dataset = PartitionedDataset.from_records(records, n_partitions)
        assert sorted(dataset.collect()) == sorted(records)
        assert dataset.n_partitions == n_partitions

    @given(
        records=st.lists(st.integers(min_value=-50, max_value=50),
                         min_size=1, max_size=200),
        n_in=st.integers(min_value=1, max_value=8),
        n_out=st.integers(min_value=1, max_value=8),
    )
    def test_repartition_preserves_multiset_and_key_purity(
        self, records, n_in, n_out
    ):
        dataset = PartitionedDataset.from_records(records, n_in)
        shuffled = dataset.repartition_by_key(lambda x: x % 3, n_out)
        assert sorted(shuffled.collect()) == sorted(records)
        # No key spans two partitions.
        location = {}
        for index, partition in enumerate(shuffled.partitions):
            for record in partition:
                key = record % 3
                assert location.setdefault(key, index) == index


class TestBatchExecutorProperties:
    @given(docs=st.lists(
        st.text(alphabet="abc ", min_size=0, max_size=30),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=25, deadline=None)
    def test_wordcount_matches_reference(self, docs):
        dataset = PartitionedDataset.from_records(docs, 4)
        plan = (
            Plan.source()
            .flat_map(tokenize)
            .map(lambda w: (w, 1))
            .reduce_by_key(lambda kv: kv[0],
                           lambda a, b: (a[0], a[1] + b[1]))
        )
        result = BatchExecutor(_CLUSTER).run(plan, dataset)
        got = {key: value[1] for key, value in result.records}
        assert got == Counter(w for doc in docs for w in tokenize(doc))

    @given(
        values=st.lists(st.integers(min_value=-1000, max_value=1000),
                        min_size=1, max_size=150),
    )
    @settings(max_examples=25, deadline=None)
    def test_sort_by_is_total_order(self, values):
        dataset = PartitionedDataset.from_records(values, 4)
        plan = Plan.source().sort_by(lambda x: x)
        result = BatchExecutor(_CLUSTER).run(plan, dataset)
        assert result.records == sorted(values)

    @given(
        values=st.lists(st.integers(min_value=-100, max_value=100),
                        min_size=1, max_size=100),
        threshold=st.integers(min_value=-100, max_value=100),
    )
    @settings(max_examples=25, deadline=None)
    def test_filter_semantics(self, values, threshold):
        dataset = PartitionedDataset.from_records(values, 4)
        plan = Plan.source().filter(lambda x: x > threshold)
        result = BatchExecutor(_CLUSTER).run(plan, dataset)
        assert sorted(result.records) == sorted(
            v for v in values if v > threshold
        )


class TestSchedulerProperties:
    @given(
        n_tasks=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_dags_schedule_validly(self, n_tasks, seed):
        import random

        rng = random.Random(seed)
        job = Job(f"rand{seed}")
        blocks = ["filter-scan", "hash-aggregate", "sort", "dense-gemm"]
        for i in range(n_tasks):
            deps = [f"t{j}" for j in range(i) if rng.random() < 0.3]
            job.add(Task(f"t{i}", rng.choice(blocks),
                         rng.randint(1_000, 1_000_000), deps=deps,
                         output_bytes=rng.choice([0.0, 1e6, 1e8])))
        executors = [
            Executor("cpu0", "hA", xeon_e5()),
            Executor("cpu1", "hB", xeon_e5()),
        ]
        scheduler = HeterogeneousScheduler(executors)
        for algorithm in ("fifo", "greedy_eft", "heft"):
            schedule = getattr(scheduler, algorithm)(job)
            schedule.validate()  # precedence + no executor overlap
            assert len(schedule.assignments) == n_tasks

    @given(
        n_tasks=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=20, deadline=None)
    def test_greedy_eft_never_loses_to_fifo(self, n_tasks, seed):
        import random

        rng = random.Random(seed)
        job = Job(f"chain{seed}")
        for i in range(n_tasks):
            deps = [f"t{i-1}"] if i else []
            job.add(Task(f"t{i}", rng.choice(["dense-gemm", "sort"]),
                         rng.randint(10_000, 5_000_000), deps=deps))
        from repro.node import nvidia_k80

        executors = [
            Executor("cpu0", "h", xeon_e5()),
            Executor("gpu0", "h", nvidia_k80()),
        ]
        scheduler = HeterogeneousScheduler(executors)
        assert (
            scheduler.greedy_eft(job).makespan_s
            <= scheduler.fifo(job).makespan_s + 1e-9
        )


class TestPortfolioProperties:
    @given(budget=st.floats(min_value=5.0, max_value=400.0))
    @settings(max_examples=30, deadline=None)
    def test_knapsack_dominates_greedy_and_respects_budget(self, budget):
        exact = optimize_portfolio(_SCORED, budget)
        greedy = greedy_portfolio(_SCORED, budget)
        assert exact.total_cost_meur <= budget + 1e-9
        assert greedy.total_cost_meur <= budget + 1e-9
        assert exact.total_priority >= greedy.total_priority - 1e-9
