"""Logical query plans: a small Pig-Latin-like fluent builder.

Plans operate on *rows* (plain tuples, stably hashable) and chain
row-local operators (filter, map-side join) with grouping operators
(group_by, top) that introduce MapReduce stage boundaries when compiled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.query.aggregates import Aggregation, MultiAggregation

Row = tuple
Predicate = Callable[[Row], bool]
KeyFn = Callable[[Row], Any]


@dataclass(frozen=True)
class LoadOp:
    schema: tuple[str, ...]


@dataclass(frozen=True)
class FilterOp:
    predicate: Predicate


@dataclass(frozen=True)
class JoinOp:
    """Map-side (fragment-replicate) join against a small static table.

    ``table`` maps join keys to the reference row appended to matching
    stream rows; non-matching rows are dropped (inner join).
    """

    table: dict
    key_fn: KeyFn


@dataclass(frozen=True)
class GroupOp:
    key_fn: KeyFn
    aggregation: Aggregation


@dataclass(frozen=True)
class TopOp:
    n: int
    score_fn: Callable[[Row], float]


RowOp = FilterOp | JoinOp
BoundaryOp = GroupOp | TopOp


@dataclass
class Query:
    """A chain of operators, built fluently::

        plan = (Query.load(("user", "action", "revenue"))
                .filter(lambda r: r[1] == "view")
                .group_by(lambda r: r[0], Count()))
    """

    ops: list = field(default_factory=list)

    @staticmethod
    def load(schema: tuple[str, ...]) -> "Query":
        return Query(ops=[LoadOp(tuple(schema))])

    def _extend(self, op) -> "Query":
        return Query(ops=self.ops + [op])

    # -- row-local operators -------------------------------------------------

    def filter(self, predicate: Predicate) -> "Query":
        """Keep only rows matching ``predicate``."""
        return self._extend(FilterOp(predicate))

    def join(self, table: dict, key_fn: KeyFn) -> "Query":
        """Map-side join with a small static table.

        The matched table value is appended as the row's last field.
        """
        return self._extend(JoinOp(dict(table), key_fn))

    # -- stage boundaries -----------------------------------------------------

    def group_by(
        self, key_fn: KeyFn, aggregation: Aggregation | list[Aggregation]
    ) -> "Query":
        """Group rows by key and aggregate; starts a new MapReduce stage.

        Downstream operators see rows of the form ``(key, aggregate)``
        (or ``(key, agg1, agg2, ...)`` for a list of aggregations).
        """
        if isinstance(aggregation, list):
            aggregation = MultiAggregation(aggregation)
        return self._extend(GroupOp(key_fn, aggregation))

    def top(self, n: int, score_fn: Callable[[Row], float]) -> "Query":
        """Keep the ``n`` highest-scoring rows (ORDER BY ... LIMIT n)."""
        if n <= 0:
            raise ValueError(f"top-n needs a positive n, got {n}")
        return self._extend(TopOp(n, score_fn))

    # -- inspection ------------------------------------------------------------

    @property
    def schema(self) -> tuple[str, ...]:
        if not self.ops or not isinstance(self.ops[0], LoadOp):
            raise ValueError("query must start with Query.load(...)")
        return self.ops[0].schema

    def num_stages(self) -> int:
        """How many MapReduce jobs this plan compiles to."""
        return max(1, sum(isinstance(op, (GroupOp, TopOp)) for op in self.ops))
