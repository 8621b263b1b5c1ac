"""Logical dataflow plans (the MapReduce/Spark/Flink abstraction layer).

A :class:`Plan` is a chain of operators over a source dataset. Narrow
operators (map, filter, flat_map) run partition-local; wide operators
(reduce_by_key, group_by_key, sort_by, distinct) force a shuffle -- the
framework behaviour §IV.C describes.

Each operator can name the :mod:`building block <repro.analytics.blocks>`
it corresponds to (``block=``); the executor uses that to cost the
operator and, under an offload policy, to run it on an accelerator (R10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.errors import PlanError

#: Operator kinds and their width.
NARROW_KINDS = ("map", "filter", "flat_map", "broadcast_join")
WIDE_KINDS = ("reduce_by_key", "group_by_key", "sort_by", "distinct")


@dataclass(frozen=True)
class Operator:
    """One step in a dataflow plan."""

    kind: str
    fn: Optional[Callable] = None
    key_fn: Optional[Callable] = None
    block: str = "filter-scan"  # cost-model building block
    label: str = ""
    side_table: Optional[tuple] = None  # broadcast_join's small relation

    def __post_init__(self) -> None:
        if self.kind not in NARROW_KINDS + WIDE_KINDS:
            raise PlanError(f"unknown operator kind: {self.kind!r}")
        if self.kind in ("map", "filter", "flat_map", "reduce_by_key") and (
            self.fn is None
        ):
            raise PlanError(f"{self.kind} requires fn")
        if self.kind in WIDE_KINDS and self.kind != "distinct" and (
            self.key_fn is None
        ):
            raise PlanError(f"{self.kind} requires key_fn")
        if self.kind == "broadcast_join":
            if self.key_fn is None or self.fn is None:
                raise PlanError("broadcast_join requires key_fn and fn")
            if self.side_table is None:
                raise PlanError("broadcast_join requires a side table")

    @property
    def is_wide(self) -> bool:
        """Whether the operator triggers a shuffle."""
        return self.kind in WIDE_KINDS


@dataclass
class Plan:
    """A chain of operators; built fluently, executed by an executor.

    >>> plan = (Plan.source()
    ...         .map(lambda x: x * 2)
    ...         .filter(lambda x: x > 2))
    >>> [op.kind for op in plan.operators]
    ['map', 'filter']
    """

    operators: List[Operator] = field(default_factory=list)

    @classmethod
    def source(cls) -> "Plan":
        """An empty plan over the (to-be-supplied) source dataset."""
        return cls()

    def _extend(self, operator: Operator) -> "Plan":
        return Plan(operators=self.operators + [operator])

    # -- narrow ------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], block: str = "filter-scan",
            label: str = "") -> "Plan":
        """Apply ``fn`` to every record."""
        return self._extend(Operator("map", fn=fn, block=block, label=label))

    def filter(self, fn: Callable[[Any], bool], block: str = "filter-scan",
               label: str = "") -> "Plan":
        """Keep records where ``fn`` is true."""
        return self._extend(Operator("filter", fn=fn, block=block, label=label))

    def flat_map(self, fn: Callable[[Any], list], block: str = "filter-scan",
                 label: str = "") -> "Plan":
        """Apply ``fn`` and flatten the resulting lists."""
        return self._extend(
            Operator("flat_map", fn=fn, block=block, label=label)
        )

    def broadcast_join(
        self,
        side_table,
        key_fn: Callable[[Any], Any],
        side_key_fn: Callable[[Any], Any],
        block: str = "hash-join",
        label: str = "",
    ) -> "Plan":
        """Map-side join against a small broadcast relation.

        Each record joins with the matching ``side_table`` rows (inner
        join semantics, emitting ``(record, side_row)`` pairs). Narrow:
        no shuffle -- the side table ships to every host once, which is
        why it must be small.
        """
        index: dict = {}
        for row in side_table:
            index.setdefault(side_key_fn(row), []).append(row)

        def join_record(record):
            return [(record, row) for row in index.get(key_fn(record), ())]

        return self._extend(
            Operator(
                "broadcast_join",
                fn=join_record,
                key_fn=key_fn,
                block=block,
                label=label,
                side_table=tuple(side_table),
            )
        )

    # -- wide ----------------------------------------------------------------

    def reduce_by_key(
        self,
        key_fn: Callable[[Any], Any],
        reduce_fn: Callable[[Any, Any], Any],
        block: str = "hash-aggregate",
        label: str = "",
    ) -> "Plan":
        """Shuffle by key, then fold each key's records with ``reduce_fn``.

        Emits ``(key, reduced_value)`` tuples.
        """
        return self._extend(
            Operator(
                "reduce_by_key", fn=reduce_fn, key_fn=key_fn, block=block,
                label=label,
            )
        )

    def group_by_key(
        self, key_fn: Callable[[Any], Any], block: str = "hash-aggregate",
        label: str = "",
    ) -> "Plan":
        """Shuffle by key; emits ``(key, [records])`` tuples."""
        return self._extend(
            Operator("group_by_key", key_fn=key_fn, block=block, label=label)
        )

    def sort_by(
        self, key_fn: Callable[[Any], Any], block: str = "sort", label: str = ""
    ) -> "Plan":
        """Global sort by key (range-partition shuffle + local sort)."""
        return self._extend(
            Operator("sort_by", key_fn=key_fn, block=block, label=label)
        )

    def distinct(self, block: str = "hash-aggregate", label: str = "") -> "Plan":
        """Global deduplication (hash shuffle + set)."""
        return self._extend(Operator("distinct", block=block, label=label))

    # -- introspection -------------------------------------------------------

    @property
    def n_shuffles(self) -> int:
        """Number of shuffles the plan performs."""
        return sum(1 for op in self.operators if op.is_wide)

    def validate(self) -> None:
        """Sanity-check the chain (non-empty)."""
        if not self.operators:
            raise PlanError("plan has no operators")
