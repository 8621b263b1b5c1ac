"""Tests for workload generators, the search service and the suite."""

import numpy as np
import pytest

from repro.cluster import uniform_cluster
from repro.errors import ModelError
from repro.frameworks import cpu_only, greedy_time
from repro.network import leaf_spine
from repro.node import (
    accelerated_server,
    arria10_fpga,
    commodity_server,
    nvidia_k80,
    xeon_e5,
)
from repro.workloads import (
    SearchServiceConfig,
    compare_architectures,
    convergence_comparison,
    gaussian_blobs,
    max_qps_within_sla,
    run_search_service,
    run_suite,
    run_trigger_pipeline,
    sales_table,
    science_events,
    sensor_readings,
    standard_suite,
    tail_latency_reduction,
    web_graph,
    zipf_documents,
)


class TestGenerators:
    def test_zipf_documents_shape(self):
        docs = zipf_documents(10, 20, seed=1)
        assert len(docs) == 10
        assert all(len(d.split()) == 20 for d in docs)

    def test_zipf_documents_skewed(self):
        docs = zipf_documents(200, 50, skew=1.3, seed=1)
        from collections import Counter

        counts = Counter(w for d in docs for w in d.split())
        top = counts.most_common(1)[0][1]
        median = sorted(counts.values())[len(counts) // 2]
        assert top > 5 * median

    def test_generators_deterministic(self):
        assert zipf_documents(5, 10, seed=3) == zipf_documents(5, 10, seed=3)
        assert sales_table(10, seed=3) == sales_table(10, seed=3)

    def test_sales_table_fields(self):
        rows = sales_table(50, seed=2)
        assert all(r["amount"] > 0 for r in rows)
        assert {r["region"] for r in rows} <= {"EU", "US", "APAC"}

    def test_sensor_anomalies_rare_but_present(self):
        readings = sensor_readings(5000, anomaly_rate=0.02, seed=2)
        n_anomalies = sum(r["anomalous"] for r in readings)
        assert 20 < n_anomalies < 300
        anomalous_values = [r["value"] for r in readings if r["anomalous"]]
        normal_values = [r["value"] for r in readings if not r["anomalous"]]
        assert np.mean(anomalous_values) > np.mean(normal_values) + 5

    def test_web_graph_powerlaw_head(self):
        graph = web_graph(500, seed=2)
        in_degree = {}
        for src, dsts in graph.items():
            for dst in dsts:
                in_degree[dst] = in_degree.get(dst, 0) + 1
        assert max(in_degree.values()) > 10 * np.median(list(in_degree.values()))

    def test_gaussian_blobs_clustered(self):
        points, labels = gaussian_blobs(500, n_clusters=3, seed=2)
        assert points.shape == (500, 8)
        assert set(labels) == {0, 1, 2}

    def test_science_events_rare_interesting(self):
        events = science_events(5000, seed=2)
        interesting = [e for e in events if e["interesting"]]
        assert len(interesting) < 50

    def test_validation(self):
        with pytest.raises(ModelError):
            zipf_documents(0, 10)
        with pytest.raises(ModelError):
            sales_table(0)
        with pytest.raises(ModelError):
            sensor_readings(10, anomaly_rate=1.0)
        with pytest.raises(ModelError):
            web_graph(1)
        with pytest.raises(ModelError):
            science_events(10, rate_hz=0.0)


class TestSearchService:
    def test_latency_count_matches_requests(self):
        result = run_search_service(1000, 500, accelerated=False, seed=1)
        assert len(result.latencies_s) == 500

    def test_deterministic(self):
        a = run_search_service(1000, 300, True, seed=5)
        b = run_search_service(1000, 300, True, seed=5)
        assert a.latencies_s == b.latencies_s

    def test_acceleration_cuts_tail_at_operating_point(self):
        # E2: roughly the Catapult 29% figure at the 2000 qps point.
        result = tail_latency_reduction(2000, n_requests=6000)
        assert 0.15 < result["tail_reduction"] < 0.45

    def test_tail_reduction_grows_under_overload(self):
        light = tail_latency_reduction(500, n_requests=4000)
        heavy = tail_latency_reduction(3000, n_requests=4000)
        assert heavy["tail_reduction"] > light["tail_reduction"]

    def test_accelerated_sustains_higher_qps_at_sla(self):
        sla = 0.012
        base = max_qps_within_sla(sla, accelerated=False, n_requests=3000,
                                  qps_hi=20_000)
        accel = max_qps_within_sla(sla, accelerated=True, n_requests=3000,
                                   qps_hi=20_000)
        assert accel > 1.5 * base

    def test_p99_above_p50(self):
        result = run_search_service(2000, 3000, False, seed=2)
        assert result.p99_s > result.p50_s

    def test_validation(self):
        with pytest.raises(ModelError):
            run_search_service(0, 10, True)
        with pytest.raises(ModelError):
            run_search_service(100, 0, True)
        with pytest.raises(ModelError):
            SearchServiceConfig(n_cpu_workers=0)
        with pytest.raises(ModelError):
            max_qps_within_sla(0.0, True)


class TestTriggerPipeline:
    def test_trigger_filters_events(self):
        report = run_trigger_pipeline(xeon_e5(), n_events=5000)
        assert 0 < report.n_triggered < report.n_events
        assert report.n_windows > 0

    def test_gpu_sustains_higher_rate(self):
        comparison = convergence_comparison([xeon_e5(), nvidia_k80()])
        assert (
            comparison["nvidia-k80"].sustainable_rate_hz
            > comparison["xeon-e5"].sustainable_rate_hz
        )

    def test_validation(self):
        with pytest.raises(ModelError):
            run_trigger_pipeline(xeon_e5(), n_events=0)
        with pytest.raises(ModelError):
            convergence_comparison([])


class TestSuite:
    def test_suite_has_six_benchmarks(self):
        assert len(standard_suite()) == 6

    def test_run_suite_scores_every_benchmark(self):
        cluster = uniform_cluster(
            leaf_spine(2, 2, 2), lambda: commodity_server(xeon_e5())
        )
        scores = run_suite(cluster, "cpu-baseline")
        assert len(scores) == 6
        assert all(s.sim_time_s > 0 and s.energy_j > 0 for s in scores)

    def test_compare_architectures_side_by_side(self):
        # R9's purpose: same workloads, different architectures, one table.
        cpu_cluster = uniform_cluster(
            leaf_spine(2, 2, 2), lambda: commodity_server(xeon_e5())
        )
        fpga_cluster = uniform_cluster(
            leaf_spine(2, 2, 2),
            lambda: accelerated_server(xeon_e5(), arria10_fpga()),
        )
        # Scale matters: accelerator launch overhead only amortizes on
        # reasonably large batches (the min_profitable_ops effect).
        results = compare_architectures(
            {
                "cpu": (cpu_cluster, cpu_only()),
                "cpu+fpga": (fpga_cluster, greedy_time()),
            },
            scale=20,
        )
        cpu_times = {s.benchmark: s.sim_time_s for s in results["cpu"]}
        fpga_times = {s.benchmark: s.sim_time_s for s in results["cpu+fpga"]}
        # The FPGA helps the regex-heavy wordcount benchmark.
        assert fpga_times["wordcount"] < cpu_times["wordcount"]

    def test_bad_scale_rejected(self):
        cluster = uniform_cluster(
            leaf_spine(2, 2, 2), lambda: commodity_server(xeon_e5())
        )
        with pytest.raises(ModelError):
            run_suite(cluster, "x", scale=0)

    def test_empty_comparison_rejected(self):
        with pytest.raises(ModelError):
            compare_architectures({})

    def test_benchmark_definition_needs_exactly_one_style(self):
        from repro.workloads import BenchmarkDefinition

        with pytest.raises(ModelError):
            BenchmarkDefinition("bad", "neither style")
        with pytest.raises(ModelError):
            BenchmarkDefinition(
                "bad", "both styles",
                make_dataset=lambda s: None,
                make_plan=lambda: None,
                runner=lambda c, p, s: (1.0, 1.0, 1),
            )

    def test_streaming_entry_scores_sanely(self):
        cluster = uniform_cluster(
            leaf_spine(2, 2, 2), lambda: commodity_server(xeon_e5())
        )
        scores = {s.benchmark: s for s in run_suite(cluster, "cpu", scale=2)}
        stream = scores["stream-windows"]
        assert stream.sim_time_s > 0
        assert stream.n_output_records > 0
