"""Tests for the declarative query layer (compiles to dataflow plans)."""

import pytest

from repro.cluster import uniform_cluster
from repro.errors import PlanError
from repro.frameworks import (
    Aggregation,
    BatchExecutor,
    PartitionedDataset,
    Predicate,
    Query,
    run_query,
)
from repro.network import leaf_spine
from repro.node import commodity_server, xeon_e5
from repro.workloads import sales_table


def _executor():
    return BatchExecutor(
        uniform_cluster(leaf_spine(2, 2, 2),
                        lambda: commodity_server(xeon_e5()))
    )


def _rows():
    return sales_table(500, seed=31)


def _sums(rows, key, column):
    """``{key value: sum of column}`` over ``rows``."""
    sums = {}
    for row in rows:
        sums[row[key]] = sums.get(row[key], 0.0) + row[column]
    return sums


def _dataset(rows=None):
    return PartitionedDataset.from_records(rows or _rows(), 4,
                                           record_bytes=120)


class TestPredicate:
    def test_all_operators(self):
        row = {"x": 5}
        assert Predicate("x", "==", 5).matcher()(row)
        assert Predicate("x", "!=", 4).matcher()(row)
        assert Predicate("x", "<", 6).matcher()(row)
        assert Predicate("x", "<=", 5).matcher()(row)
        assert Predicate("x", ">", 4).matcher()(row)
        assert Predicate("x", ">=", 5).matcher()(row)
        assert Predicate("x", "in", (4, 5)).matcher()(row)

    def test_unknown_op_rejected(self):
        with pytest.raises(PlanError):
            Predicate("x", "~", 1)

    def test_missing_column_raises_at_runtime(self):
        with pytest.raises(PlanError):
            Predicate("ghost", "==", 1).matcher()({"x": 1})


class TestCompilation:
    def test_filter_group_shape(self):
        plan = (
            Query.table()
            .where("region", "==", "EU")
            .group_by("sector", Aggregation("sum", "amount", "total"))
            .compile()
        )
        kinds = [op.kind for op in plan.operators]
        assert kinds == ["filter", "map", "group_by_key", "map"]

    def test_predicate_pushdown_order(self):
        # Filters compile before the join even though declared after.
        plan = (
            Query.table()
            .join([{"k": 1}], left_key="k", right_key="k")
            .where("x", ">", 0)
            .compile()
        )
        kinds = [op.kind for op in plan.operators]
        assert kinds.index("filter") < kinds.index("broadcast_join")

    def test_group_needs_aggregation(self):
        with pytest.raises(PlanError):
            Query.table().group_by("sector")

    def test_duplicate_aliases_rejected(self):
        with pytest.raises(PlanError):
            Query.table().group_by(
                "s",
                Aggregation("sum", "a", "x"),
                Aggregation("avg", "a", "x"),
            )

    def test_single_join_only(self):
        query = Query.table().join([{"k": 1}], "k", "k")
        with pytest.raises(PlanError):
            query.join([{"k": 2}], "k", "k")

    def test_bad_aggregate_fn(self):
        with pytest.raises(PlanError):
            Aggregation("median", "a", "m")


class TestExecution:
    def test_where_matches_reference_select(self):
        rows = _rows()
        query = Query.table().where("region", "==", "EU")
        got = run_query(_executor(), query, _dataset(rows))
        expected = [r for r in rows if r["region"] == "EU"]
        assert sorted(r["order_id"] for r in got) == sorted(
            r["order_id"] for r in expected
        )

    def test_group_by_matches_reference_aggregate(self):
        rows = _rows()
        query = Query.table().group_by(
            "sector", Aggregation("sum", "amount", "sum")
        )
        got = run_query(_executor(), query, _dataset(rows))
        expected = _sums(rows, "sector", "amount")
        assert {r["sector"] for r in got} == set(expected)
        for row in got:
            assert row["sum"] == pytest.approx(expected[row["sector"]])

    def test_multiple_aggregates(self):
        rows = _rows()
        query = Query.table().group_by(
            "region",
            Aggregation("count", "amount", "n"),
            Aggregation("max", "amount", "biggest"),
        )
        got = {r["region"]: r for r in run_query(_executor(), query,
                                                 _dataset(rows))}
        eu_rows = [r for r in rows if r["region"] == "EU"]
        assert got["EU"]["n"] == len(eu_rows)
        assert got["EU"]["biggest"] == max(r["amount"] for r in eu_rows)

    def test_join_matches_reference_hash_join(self):
        rows = _rows()
        dims = [{"sector": s, "multiplier": i}
                for i, s in enumerate(
                    ("telecom", "finance", "health", "automotive",
                     "analytics"))]
        query = Query.table().join(dims, left_key="sector",
                                   right_key="sector")
        got = run_query(_executor(), query, _dataset(rows))
        sectors = {d["sector"] for d in dims}
        assert len(got) == sum(r["sector"] in sectors for r in rows)
        assert all("multiplier" in r for r in got)

    def test_order_by_descending_with_limit(self):
        rows = _rows()
        query = Query.table().order_by("amount", descending=True)
        got = run_query(_executor(), query, _dataset(rows))[:5]
        reference = sorted(rows, key=lambda r: r["amount"], reverse=True)[:5]
        assert [r["order_id"] for r in got] == [
            r["order_id"] for r in reference
        ]

    def test_full_query_pipeline(self):
        # WHERE + GROUP BY + ORDER BY: the paper's SQL archetype.
        rows = _rows()
        query = (
            Query.table()
            .where("region", "==", "EU")
            .group_by("sector", Aggregation("sum", "amount", "total"))
            .order_by("total", descending=True)
        )
        got = run_query(_executor(), query, _dataset(rows))
        totals = [r["total"] for r in got]
        assert totals == sorted(totals, reverse=True)
        eu = [r for r in rows if r["region"] == "EU"]
        assert totals[0] == pytest.approx(
            max(_sums(eu, "sector", "amount").values())
        )

    def test_missing_column_surfaces(self):
        query = Query.table().where("ghost", "==", 1)
        with pytest.raises(PlanError):
            run_query(_executor(), query, _dataset())
