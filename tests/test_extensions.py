"""Tests for the extension modules: faults, online scheduling, edge
placement, sensitivity analysis, forecast scenarios, market entry and
broadcast join."""

import pytest

from repro.cluster import uniform_cluster
from repro.core import (
    forecast_uncertainty_table,
    investment_impact,
    monte_carlo_commodity_year,
)
from repro.core.technology import TECHNOLOGY_CATALOG
from repro.econ import (
    AcceleratorInvestment,
    SensitivityRange,
    decision_flips,
    default_accelerator_ranges,
    tornado,
)
from repro.ecosystem import eu_fpga_entrant, subsidy_sensitivity
from repro.engine import RandomStream
from repro.errors import ModelError, SchedulingError
from repro.frameworks import (
    BatchExecutor,
    FaultModel,
    PartitionedDataset,
    Plan,
    bsp_stage_time,
    speculation_benefit,
    task_time_with_faults,
)
from repro.network import leaf_spine
from repro.node import arm_microserver, commodity_server, xeon_e5
from repro.scheduler import (
    Executor,
    OnlineJob,
    OnlineScheduler,
    chain_job,
    poisson_job_stream,
)
from repro.workloads import EdgeScenario, WanLink, best_placement, evaluate_placements


class TestFaultModel:
    def test_no_faults_is_base_time(self):
        model = FaultModel(straggler_probability=0.0, failure_probability=0.0)
        rng = RandomStream(1)
        assert task_time_with_faults(10.0, model, rng) == 10.0

    def test_stragglers_inflate_time(self):
        model = FaultModel(straggler_probability=0.999,
                           straggler_slowdown=5.0,
                           failure_probability=0.0)
        rng = RandomStream(1)
        assert task_time_with_faults(10.0, model, rng) == pytest.approx(50.0)

    def test_failures_cost_full_attempts(self):
        model = FaultModel(straggler_probability=0.0,
                           failure_probability=0.7, max_retries=10)
        rng = RandomStream(3)
        time = task_time_with_faults(10.0, model, rng)
        assert time >= 10.0
        assert time % 10.0 == pytest.approx(0.0)

    def test_retry_budget_exhaustion_raises(self):
        model = FaultModel(failure_probability=0.99, max_retries=0)
        # With p=.99 most draws fail; find a failing seed deterministically.
        with pytest.raises(ModelError):
            for seed in range(20):
                task_time_with_faults(1.0, model, RandomStream(seed))

    def test_stage_time_is_max_of_tasks(self):
        model = FaultModel()
        outcome = bsp_stage_time(50, 10.0, model, RandomStream(2))
        assert outcome.stage_time_s == max(outcome.task_times_s)
        assert len(outcome.task_times_s) == 50

    def test_speculation_reduces_stage_time(self):
        model = FaultModel(straggler_probability=0.1, straggler_slowdown=10.0,
                           failure_probability=0.0)
        result = speculation_benefit(40, 10.0, model, rounds=20)
        assert result["speedup"] > 1.2
        assert result["mean_copies"] > 0

    def test_validation(self):
        with pytest.raises(ModelError):
            FaultModel(straggler_probability=1.0)
        with pytest.raises(ModelError):
            FaultModel(straggler_slowdown=0.5)
        with pytest.raises(ModelError):
            bsp_stage_time(0, 1.0, FaultModel(), RandomStream(0))


class TestOnlineScheduling:
    def _scheduler(self):
        from repro.node import nvidia_k80

        return OnlineScheduler([
            Executor("cpu0", "hA", xeon_e5()),
            Executor("cpu1", "hB", xeon_e5()),
            Executor("gpu0", "hA", nvidia_k80()),
        ])

    def _stream(self, n=6):
        return poisson_job_stream(
            n, mean_interarrival_s=0.001,
            job_factory=lambda i: chain_job(
                f"job{i}", ["filter-scan", "dense-gemm"], 500_000
            ),
            seed=4,
        )

    def test_shared_beats_exclusive_on_mean_completion(self):
        # R11: dynamic allocation wins when jobs can't saturate the pool.
        scheduler = self._scheduler()
        stream = self._stream()
        exclusive = scheduler.run_exclusive(stream)
        shared = scheduler.run_shared(stream)
        assert (
            shared.mean_completion_time_s
            <= exclusive.mean_completion_time_s + 1e-12
        )

    def test_all_jobs_complete_after_arrival(self):
        scheduler = self._scheduler()
        stream = self._stream()
        for outcome in (scheduler.run_exclusive(stream),
                        scheduler.run_shared(stream)):
            for name, finish in outcome.completions.items():
                assert finish >= outcome.arrivals[name]

    def test_duplicate_job_names_rejected(self):
        scheduler = self._scheduler()
        job = chain_job("same", ["sort"], 1000)
        with pytest.raises(SchedulingError):
            scheduler.run_shared(
                [OnlineJob(0.0, job), OnlineJob(1.0, job)]
            )

    def test_empty_stream_rejected(self):
        with pytest.raises(SchedulingError):
            self._scheduler().run_shared([])

    def test_poisson_stream_ordered(self):
        stream = self._stream(10)
        arrivals = [o.arrival_s for o in stream]
        assert arrivals == sorted(arrivals)

    def test_negative_arrival_rejected(self):
        with pytest.raises(SchedulingError):
            OnlineJob(-1.0, chain_job("x", ["sort"], 10))


class TestEdgePlacement:
    def test_three_strategies_evaluated(self):
        scenario = EdgeScenario(n_events=100_000, event_bytes=200,
                                selectivity=0.01)
        reports = evaluate_placements(scenario, arm_microserver(), xeon_e5())
        assert set(reports) == {"edge-only", "dc-only", "split"}

    def test_selective_filter_favours_split_or_edge(self):
        # 1% selectivity: shipping raw data is wasteful.
        scenario = EdgeScenario(n_events=500_000, event_bytes=500,
                                selectivity=0.01)
        best = best_placement(scenario, arm_microserver(), xeon_e5())
        assert best.strategy in ("split", "edge-only")

    def test_unselective_heavy_compute_favours_dc(self):
        # Everything survives the filter and the aggregate is heavy:
        # might as well ship raw data once to the fast device.
        scenario = EdgeScenario(
            n_events=500_000, event_bytes=40, selectivity=1.0,
            aggregate_block="dnn-inference",
        )
        wan = WanLink(rate_mbps=10_000.0, rtt_s=0.001, usd_per_gb=0.0)
        best = best_placement(scenario, arm_microserver(), xeon_e5(), wan)
        assert best.strategy == "dc-only"

    def test_split_ships_less_than_dc_only(self):
        scenario = EdgeScenario(n_events=100_000, event_bytes=200,
                                selectivity=0.05)
        reports = evaluate_placements(scenario, arm_microserver(), xeon_e5())
        assert reports["split"].wan_bytes < reports["dc-only"].wan_bytes
        assert reports["edge-only"].wan_bytes == 0.0

    def test_wan_cost_objective(self):
        scenario = EdgeScenario(n_events=100_000, event_bytes=200,
                                selectivity=0.05)
        best = best_placement(scenario, arm_microserver(), xeon_e5(),
                              objective="wan_cost")
        assert best.wan_cost_usd == 0.0  # edge-only ships nothing

    def test_validation(self):
        with pytest.raises(ModelError):
            EdgeScenario(0, 10, 0.5)
        with pytest.raises(ModelError):
            EdgeScenario(10, 10, 0.0)
        with pytest.raises(ModelError):
            WanLink(rate_mbps=0.0)
        scenario = EdgeScenario(10, 10, 0.5)
        with pytest.raises(ModelError):
            best_placement(scenario, arm_microserver(), xeon_e5(),
                           objective="vibes")


class TestSensitivity:
    def _investment(self):
        return AcceleratorInvestment(
            hardware_usd=20_000.0, port_effort_person_months=6.0,
            speedup=4.0, utilization=0.4,
            baseline_compute_value_usd_per_year=200_000.0,
        )

    def test_tornado_sorted_by_swing(self):
        bars = tornado(self._investment(), default_accelerator_ranges())
        swings = [b.swing for b in bars]
        assert swings == sorted(swings, reverse=True)

    def test_operational_uncertainty_dominates_hardware_price(self):
        # The Finding-2 story: the decision hinges on utilization and the
        # person-months of porting, not the sticker price or electricity.
        bars = tornado(self._investment(), default_accelerator_ranges())
        swing = {bar.parameter: bar.swing for bar in bars}
        assert bars[0].parameter == "utilization"
        assert swing["port_effort_person_months"] > swing["hardware_usd"]
        assert swing["utilization"] > 4 * swing["hardware_usd"]

    def test_decision_flips_detects_flippers(self):
        flips = decision_flips(self._investment(),
                               default_accelerator_ranges())
        assert flips["utilization"]  # low utilization kills the case

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ModelError):
            tornado(self._investment(),
                    [SensitivityRange("warp_factor", 0, 1)])

    def test_inverted_range_rejected(self):
        with pytest.raises(ModelError):
            SensitivityRange("speedup", 10.0, 2.0)

    def test_empty_ranges_rejected_with_clear_message(self):
        with pytest.raises(ModelError, match="at least one parameter"):
            tornado(self._investment(), [])

    def test_degenerate_range_yields_zero_swing_bar(self):
        bars = tornado(self._investment(),
                       [SensitivityRange("speedup", 4.0, 4.0)])
        assert len(bars) == 1
        assert bars[0].swing == 0.0
        assert bars[0].output_at_low == bars[0].output_at_high

    def test_equal_swings_tie_break_by_parameter_name(self):
        # Two degenerate ranges swing exactly 0.0 each; order must be
        # deterministic (alphabetical), not dict/input order.
        bars = tornado(self._investment(), [
            SensitivityRange("utilization", 0.4, 0.4),
            SensitivityRange("speedup", 4.0, 4.0),
        ])
        assert [b.parameter for b in bars] == ["speedup", "utilization"]

    def test_batch_fast_path_matches_scalar_metric(self):
        investment = self._investment()
        ranges = default_accelerator_ranges()
        fast = tornado(investment, ranges)
        slow = tornado(investment, ranges, metric=lambda inv: inv.npv_usd())
        assert [
            (b.parameter, b.output_at_low, b.output_at_high) for b in fast
        ] == [
            (b.parameter, b.output_at_low, b.output_at_high) for b in slow
        ]


class TestScenarios:
    def test_risk_widens_forecast_bands(self):
        safe = monte_carlo_commodity_year(
            TECHNOLOGY_CATALOG["10-40gbe"], n_samples=300
        )
        risky = monte_carlo_commodity_year(
            TECHNOLOGY_CATALOG["neuromorphic"], n_samples=300
        )
        assert risky.spread_years > 2 * safe.spread_years

    def test_funding_always_gains_years(self):
        impacts = investment_impact(
            acceleration=1.8,
            names=["400gbe", "neuromorphic", "sdn"],
            n_samples=200,
        )
        assert all(i.years_gained > 0 for i in impacts)

    def test_immature_tech_gains_most(self):
        impacts = {
            i.technology: i.years_gained
            for i in investment_impact(
                names=["neuromorphic", "sdn"], n_samples=200
            )
        }
        assert impacts["neuromorphic"] > impacts["sdn"]

    def test_uncertainty_table_sorted_by_median(self):
        table = forecast_uncertainty_table(
            names=["sdn", "400gbe", "neuromorphic"], n_samples=100
        )
        medians = [d.p50 for d in table]
        assert medians == sorted(medians)

    def test_validation(self):
        with pytest.raises(ModelError):
            monte_carlo_commodity_year(
                TECHNOLOGY_CATALOG["sdn"], n_samples=5
            )
        with pytest.raises(ModelError):
            investment_impact(acceleration=0.5, names=["sdn"], n_samples=100)


class TestMarketEntry:
    def test_unsubsidized_entrant_breaks_even_late_or_never(self):
        plan = eu_fpga_entrant(subsidy_usd=0.0)
        year = plan.breakeven_year()
        subsidized = eu_fpga_entrant(subsidy_usd=100e6).breakeven_year()
        if year is not None and subsidized is not None:
            assert subsidized < year

    def test_subsidy_monotone(self):
        results = subsidy_sensitivity([0.0, 50e6, 150e6])
        years = [y for y in results.values() if y is not None]
        assert years == sorted(years, reverse=True)

    def test_revenue_ramps_with_time(self):
        plan = eu_fpga_entrant()
        assert plan.revenue_usd_in_year(8.0) > plan.revenue_usd_in_year(1.0)
        assert plan.revenue_usd_in_year(-1.0) == 0.0

    def test_revenue_caps_at_target_share(self):
        plan = eu_fpga_entrant()
        cap = plan.target_share * plan.market_usd_per_year
        assert plan.revenue_usd_in_year(100.0) <= cap + 1e-6

    def test_validation(self):
        from repro.ecosystem import MarketEntryPlan
        from repro.econ import PROCESS_CATALOG

        with pytest.raises(ModelError):
            MarketEntryPlan("x", 0.0, 0.1, 0.5, 10, 10,
                            PROCESS_CATALOG["28nm"])
        with pytest.raises(ModelError):
            subsidy_sensitivity([])


class TestBroadcastJoin:
    def _cluster(self):
        return uniform_cluster(
            leaf_spine(2, 2, 2), lambda: commodity_server(xeon_e5())
        )

    def test_join_semantics(self):
        orders = [{"cust": "a", "amt": 10}, {"cust": "b", "amt": 20},
                  {"cust": "ghost", "amt": 5}]
        customers = [{"id": "a", "region": "EU"}, {"id": "b", "region": "US"}]
        dataset = PartitionedDataset.from_records(orders, 2)
        plan = Plan.source().broadcast_join(
            customers,
            key_fn=lambda o: o["cust"],
            side_key_fn=lambda c: c["id"],
        )
        result = BatchExecutor(self._cluster()).run(plan, dataset)
        joined = sorted(
            (o["cust"], c["region"]) for o, c in result.records
        )
        assert joined == [("a", "EU"), ("b", "US")]  # inner join drops ghost

    def test_join_is_narrow(self):
        plan = Plan.source().broadcast_join(
            [{"id": 1}], key_fn=lambda r: r, side_key_fn=lambda c: c["id"]
        )
        assert plan.n_shuffles == 0

    def test_duplicate_side_keys_multiply(self):
        side = [{"id": 1, "tag": "x"}, {"id": 1, "tag": "y"}]
        dataset = PartitionedDataset.from_records([1], 1)
        plan = Plan.source().broadcast_join(
            side, key_fn=lambda r: r, side_key_fn=lambda c: c["id"]
        )
        result = BatchExecutor(self._cluster()).run(plan, dataset)
        assert len(result.records) == 2

    def test_missing_side_table_rejected(self):
        from repro.errors import PlanError
        from repro.frameworks import Operator

        with pytest.raises(PlanError):
            Operator("broadcast_join", fn=lambda r: [], key_fn=lambda r: r)
