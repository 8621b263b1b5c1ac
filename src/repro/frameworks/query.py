"""A declarative query layer that compiles to dataflow plans.

§IV.C.1 traces the shift from query languages (SQL) to distributed
frameworks; this module closes the loop the way Spark SQL did: a
:class:`Query` is declared against dict-shaped rows and *compiled* to a
:class:`~repro.frameworks.dataflow.Plan`, so the same optimizer-visible
structure (filter -> project -> join -> aggregate -> sort -> limit) runs
on the simulated cluster with the right building-block cost tags.

Compilation applies the two classic logical optimizations whose effect
the cost model can actually see: predicate pushdown (filters run before
joins/aggregates, shrinking shuffles) and projection pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analytics.relational import AGGREGATES
from repro.errors import PlanError
from repro.frameworks.dataflow import Plan

Row = Dict[str, Any]


@dataclass(frozen=True)
class Predicate:
    """A WHERE clause term: column op literal."""

    column: str
    op: str
    value: Any

    _OPS: tuple = ("==", "!=", "<", "<=", ">", ">=", "in")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise PlanError(
                f"unknown predicate op {self.op!r}; choose from {self._OPS}"
            )

    def matcher(self) -> Callable[[Row], bool]:
        """The predicate as a row function."""
        column, op, value = self.column, self.op, self.value

        def match(row: Row) -> bool:
            if column not in row:
                raise PlanError(f"row missing column {column!r}")
            cell = row[column]
            if op == "==":
                return cell == value
            if op == "!=":
                return cell != value
            if op == "<":
                return cell < value
            if op == "<=":
                return cell <= value
            if op == ">":
                return cell > value
            if op == ">=":
                return cell >= value
            return cell in value  # "in"

        return match


@dataclass(frozen=True)
class Aggregation:
    """One SELECT aggregate: fn(column) AS alias."""

    fn: str
    column: str
    alias: str

    def __post_init__(self) -> None:
        if self.fn not in AGGREGATES:
            raise PlanError(
                f"unknown aggregate {self.fn!r}; choose from "
                f"{sorted(AGGREGATES)}"
            )
        if not self.alias:
            raise PlanError("aggregate needs an alias")


@dataclass(frozen=True)
class Query:
    """A declarative query over dict rows; build fluently, then compile.

    >>> q = (Query.table()
    ...      .where("region", "==", "EU")
    ...      .group_by("sector", Aggregation("sum", "amount", "total")))
    >>> plan = q.compile()
    >>> [op.kind for op in plan.operators]
    ['filter', 'map', 'group_by_key', 'map']
    """

    predicates: Tuple[Predicate, ...] = ()
    projection: Optional[Tuple[str, ...]] = None
    group_column: Optional[str] = None
    aggregations: Tuple[Aggregation, ...] = ()
    order_column: Optional[str] = None
    order_descending: bool = False
    limit_n: Optional[int] = None
    join_side: Optional[tuple] = None  # (rows, left_key, right_key)

    @classmethod
    def table(cls) -> "Query":
        """A query over the (to-be-supplied) input dataset."""
        return cls()

    # -- builders -----------------------------------------------------------

    def where(self, column: str, op: str, value: Any) -> "Query":
        """AND another predicate."""
        return replace(
            self, predicates=self.predicates + (Predicate(column, op, value),)
        )

    def select(self, *columns: str) -> "Query":
        """Project to ``columns`` (before any grouping)."""
        if not columns:
            raise PlanError("select needs at least one column")
        return replace(self, projection=tuple(columns))

    def join(self, rows: Sequence[Row], left_key: str,
             right_key: str) -> "Query":
        """Broadcast inner join against a small dimension table."""
        if self.join_side is not None:
            raise PlanError("only one join per query is supported")
        return replace(
            self, join_side=(tuple(rows), left_key, right_key)
        )

    def group_by(self, column: str, *aggregations: Aggregation) -> "Query":
        """GROUP BY one column with one or more aggregates."""
        if not aggregations:
            raise PlanError("group_by needs at least one aggregation")
        aliases = [a.alias for a in aggregations]
        if len(set(aliases)) != len(aliases):
            raise PlanError("duplicate aggregate aliases")
        return replace(
            self, group_column=column, aggregations=tuple(aggregations)
        )

    def order_by(self, column: str, descending: bool = False) -> "Query":
        """Sort the final rows."""
        return replace(
            self, order_column=column, order_descending=descending
        )

    def limit(self, n: int) -> "Query":
        """Keep the first ``n`` output rows."""
        if n < 1:
            raise PlanError("limit must be >= 1")
        return replace(self, limit_n=n)

    # -- compilation ----------------------------------------------------------

    def compile(self) -> Plan:
        """Lower the query to a dataflow plan.

        Operator order encodes predicate pushdown: WHERE before JOIN
        before GROUP BY; projection pruning runs as early as legal.

        A plan compiled from a LIMIT query carries run state (the
        remaining-row counter) and is therefore single-use: call
        ``compile()`` again for another execution.
        """
        plan = Plan.source()
        # 1. Predicate pushdown: filters first, fused left to right.
        for predicate in self.predicates:
            plan = plan.filter(
                predicate.matcher(), block="filter-scan",
                label=f"where-{predicate.column}",
            )
        # 2. Early projection (only when no join/group needs other columns).
        if self.projection and not self.group_column and not self.join_side:
            columns = self.projection

            def project(row: Row) -> Row:
                try:
                    return {c: row[c] for c in columns}
                except KeyError as exc:
                    raise PlanError(f"missing column: {exc}") from exc

            plan = plan.map(project, block="filter-scan", label="project")
        # 3. Broadcast join.
        if self.join_side:
            rows, left_key, right_key = self.join_side
            plan = plan.broadcast_join(
                list(rows),
                key_fn=lambda r: r[left_key],
                side_key_fn=lambda r: r[right_key],
                label=f"join-{left_key}",
            )
            # Merge the pair back into a flat row (right columns win ties
            # with a suffix, matching analytics.relational.hash_join).
            def merge(pair):
                left, right = pair
                merged = dict(left)
                for column, value in right.items():
                    if column == right_key:
                        continue
                    key = column + "_r" if column in left else column
                    merged[key] = value
                return merged

            plan = plan.map(merge, block="hash-join", label="merge-join")
        # 4. Grouped aggregation.
        if self.group_column:
            group_column = self.group_column
            aggregations = self.aggregations

            def to_kv(row: Row):
                if group_column not in row:
                    raise PlanError(f"row missing column {group_column!r}")
                return (row[group_column], row)

            plan = plan.map(to_kv, block="filter-scan", label="key-by")
            plan = plan.group_by_key(
                lambda kv: kv[0], label=f"group-{group_column}"
            )

            def aggregate(kv):
                key, pairs = kv
                rows = [row for _, row in pairs]
                out: Row = {group_column: key}
                for agg in aggregations:
                    values = [row[agg.column] for row in rows]
                    out[agg.alias] = AGGREGATES[agg.fn](values)
                return out

            plan = plan.map(aggregate, block="hash-aggregate",
                            label="aggregate")
        # 5. Ordering and limit.
        if self.order_column:
            column = self.order_column
            descending = self.order_descending

            def sort_key(row: Row):
                if column not in row:
                    raise PlanError(f"row missing sort column {column!r}")
                value = row[column]
                return _Reversed(value) if descending else value

            plan = plan.sort_by(sort_key, label=f"order-{column}")
        if self.limit_n is not None:
            remaining = {"left": self.limit_n}

            def take(row: Row) -> bool:
                if remaining["left"] <= 0:
                    return False
                remaining["left"] -= 1
                return True

            plan = plan.filter(take, block="filter-scan", label="limit")
        plan.validate()
        return plan


class _Reversed:
    """Total-order inverter for descending sorts of arbitrary comparables."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


def run_query(executor, query: Query, dataset) -> List[Row]:
    """Compile and execute ``query``; returns the result rows."""
    result = executor.run(query.compile(), dataset)
    return result.records
