"""Tests for NLP and relational kernels."""

import pytest

from repro.analytics import (
    group_aggregate,
    hash_join,
    limit,
    order_by,
    project,
    select,
    tokenize,
)
from repro.errors import ModelError


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Big Data, Big Deal!") == ["big", "data", "big", "deal"]

    def test_keeps_digits_and_apostrophes(self):
        assert tokenize("it's 400GbE") == ["it's", "400gbe"]

    def test_empty(self):
        assert tokenize("") == []


ROWS = [
    {"id": 1, "sector": "telecom", "revenue": 10.0},
    {"id": 2, "sector": "finance", "revenue": 30.0},
    {"id": 3, "sector": "telecom", "revenue": 20.0},
]


class TestRelational:
    def test_select(self):
        out = select(ROWS, lambda r: r["revenue"] > 15)
        assert [r["id"] for r in out] == [2, 3]

    def test_project(self):
        out = project(ROWS, ["id"])
        assert out == [{"id": 1}, {"id": 2}, {"id": 3}]

    def test_project_missing_column(self):
        with pytest.raises(ModelError):
            project(ROWS, ["ghost"])

    def test_group_aggregate_sum(self):
        out = group_aggregate(ROWS, "sector", "revenue", "sum")
        assert out == [
            {"sector": "finance", "sum": 30.0},
            {"sector": "telecom", "sum": 30.0},
        ]

    def test_group_aggregate_avg_and_count(self):
        avg = group_aggregate(ROWS, "sector", "revenue", "avg")
        assert avg[1] == {"sector": "telecom", "avg": 15.0}
        count = group_aggregate(ROWS, "sector", "revenue", "count")
        assert count[1] == {"sector": "telecom", "count": 2}

    def test_unknown_aggregate(self):
        with pytest.raises(ModelError):
            group_aggregate(ROWS, "sector", "revenue", "median")

    def test_hash_join(self):
        sectors = [
            {"sector": "telecom", "region": "EU"},
            {"sector": "finance", "region": "UK"},
        ]
        out = hash_join(ROWS, sectors, key="sector")
        assert len(out) == 3
        assert out[0]["region"] == "EU"

    def test_hash_join_collision_suffix(self):
        left = [{"k": 1, "v": "left"}]
        right = [{"k": 1, "v": "right"}]
        out = hash_join(left, right, key="k")
        assert out == [{"k": 1, "v": "left", "v_r": "right"}]

    def test_hash_join_missing_key(self):
        with pytest.raises(ModelError):
            hash_join([{"a": 1}], [{"k": 1}], key="k")

    def test_order_by_and_limit(self):
        out = order_by(ROWS, "revenue", descending=True)
        assert [r["id"] for r in out] == [2, 3, 1]
        assert limit(out, 1)[0]["id"] == 2
        with pytest.raises(ModelError):
            limit(out, -1)

    def test_order_by_missing_column(self):
        with pytest.raises(ModelError):
            order_by(ROWS, "ghost")
