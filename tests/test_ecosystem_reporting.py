"""Tests for the ecosystem layer and reporting utilities."""

import pytest

from repro.ecosystem import (
    CONSORTIUM,
    INITIATIVE_CATALOG,
    MARKETS_2016,
    MarketShare,
    REQUIRED_CAPABILITIES,
    ScopeArea,
    concentration_report,
    consortium_balance,
    consortium_coverage,
    coverage_matrix,
    exclusive_scopes,
    landscape_graph,
    lock_in_premium,
    overlap_pairs,
    uncovered_scopes,
)
from repro.errors import ModelError, RegistryError
from repro.reporting import (
    EXPERIMENTS,
    format_value,
    get_experiment,
    registry,
    render_records,
    render_table,
)


class TestLandscape:
    def test_nine_initiatives(self):
        assert len(INITIATIVE_CATALOG) == 9

    def test_rethink_big_uniquely_owns_bigdata_hw_and_networking(self):
        # The F1 positioning claim.
        exclusive = exclusive_scopes("RETHINK-big")
        assert set(exclusive) == {
            ScopeArea.BIG_DATA_HARDWARE.value,
            ScopeArea.BIG_DATA_NETWORKING.value,
        }

    def test_no_scope_left_uncovered(self):
        # SIII: every general-compute-adjacent area is someone's mandate...
        gaps = uncovered_scopes()
        # ...except general compute itself, which the ETPs share informally.
        assert gaps == [ScopeArea.GENERAL_COMPUTE.value]

    def test_coverage_matrix_lists_initiatives(self):
        matrix = coverage_matrix()
        assert matrix[ScopeArea.HPC.value] == ["ETP4HPC"]
        assert matrix[ScopeArea.IOT.value] == ["AIOTI"]

    def test_landscape_graph_bipartite(self):
        graph = landscape_graph()
        assert "RETHINK-big" in graph
        assert ScopeArea.BIG_DATA_HARDWARE.value in graph
        assert graph.has_edge(
            "RETHINK-big", ScopeArea.BIG_DATA_HARDWARE.value
        )

    def test_no_overlap_in_curated_landscape(self):
        # The paper's framework deliberately partitions scope.
        assert overlap_pairs() == []

    def test_unknown_initiative_rejected(self):
        with pytest.raises(ModelError):
            exclusive_scopes("GHOST")


class TestConsortium:
    def test_nine_partners(self):
        assert len(CONSORTIUM) == 9

    def test_every_required_capability_covered(self):
        # The T1 claim: the consortium spans the needed expertise.
        coverage = consortium_coverage()
        for capability in REQUIRED_CAPABILITIES:
            assert coverage[capability], f"{capability} uncovered"

    def test_balance_has_all_kinds(self):
        balance = consortium_balance()
        assert set(balance) == {"academic", "large-industry", "sme"}
        assert balance["academic"] == 6
        assert balance["large-industry"] == 2
        assert balance["sme"] == 1

    def test_empty_consortium_rejected(self):
        with pytest.raises(ModelError):
            consortium_coverage([])
        with pytest.raises(ModelError):
            consortium_balance([])


class TestMarkets:
    def test_shares_must_sum_to_one(self):
        with pytest.raises(ModelError):
            MarketShare("bad", {"a": 0.5, "b": 0.2})

    def test_gpgpu_market_claim(self):
        # ">95% of GPU-accelerated systems in the TOP500 use Nvidia".
        market = MARKETS_2016["gpgpu-top500"]
        assert market.leader() == "nvidia"
        assert market.leader_share() > 0.95
        assert market.is_highly_concentrated()

    def test_server_cpu_market_claim(self):
        market = MARKETS_2016["server-cpu"]
        assert market.leader() == "intel"
        assert market.hhi() > 9000

    def test_switch_market_less_concentrated(self):
        assert (
            MARKETS_2016["datacenter-switch"].hhi()
            < MARKETS_2016["server-cpu"].hhi()
        )

    def test_concentration_report_sorted(self):
        report = concentration_report()
        hhis = [row["hhi"] for row in report]
        assert hhis == sorted(hhis, reverse=True)

    def test_lock_in_premium_protects_incumbent(self):
        market = MARKETS_2016["gpgpu-top500"]
        result = lock_in_premium(
            market, codebase_kloc=500.0, annual_license_usd=200_000.0
        )
        assert result["switching_cost_usd"] > 1e6
        assert result["years_protected"] > 1.0

    def test_lock_in_validation(self):
        market = MARKETS_2016["gpgpu-top500"]
        with pytest.raises(ModelError):
            lock_in_premium(market, 100.0, 0.0)
        with pytest.raises(ModelError):
            lock_in_premium(market, 100.0, 1000.0, monopoly_markup=2.0)


class TestTables:
    def test_render_table_aligns(self):
        text = render_table(["name", "value"], [["a", 1], ["long-name", 2]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ModelError):
            render_table(["a"], [[1, 2]])

    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(0.000012) == "1.200e-05"
        assert format_value(3.14159) == "3.142"
        assert format_value("x") == "x"
        assert format_value(0.0) == "0"

    def test_render_records(self):
        text = render_records(
            [{"a": 1, "b": 2.0}, {"a": 3, "b": 4.0}], title="T"
        )
        assert text.startswith("T\n")

    def test_render_records_missing_column(self):
        with pytest.raises(ModelError):
            render_records([{"a": 1}], columns=["a", "ghost"])

    def test_render_records_empty(self):
        with pytest.raises(ModelError):
            render_records([])


class TestExperimentRegistry:
    def test_seventeen_experiments(self):
        # T1 + F1 + E1..E16 + X1..X10 + X11 + X12 + X14..X17 = 34
        assert len(EXPERIMENTS) == 34

    def test_ids_unique(self):
        table = registry()
        assert len(table) == len(EXPERIMENTS)

    def test_every_module_importable(self):
        import importlib

        for experiment in EXPERIMENTS:
            for module in experiment.modules:
                importlib.import_module(module)

    def test_every_bench_file_exists(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        for experiment in EXPERIMENTS:
            assert (root / experiment.bench).exists(), experiment.bench

    def test_lookup(self):
        assert get_experiment("E2").paper_anchor.startswith("SI")
        with pytest.raises(RegistryError):
            get_experiment("E99")
