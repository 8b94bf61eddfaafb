"""Aggregation functions usable in GROUP BY clauses.

Each aggregation supplies the three pieces a MapReduce stage needs: the
per-row initial value the Map side emits, the associative (and commutative)
combiner that contracts values, and the Reduce-side finalizer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.mapreduce.combiners import (
    Combiner,
    MaxCombiner,
    MeanCombiner,
    MinCombiner,
    SetUnionCombiner,
    SumCombiner,
)

Row = tuple


class Aggregation(ABC):
    """One aggregate over the rows of a group."""

    @abstractmethod
    def initial(self, row: Row) -> Any:
        """The combined-form value contributed by one row."""

    @abstractmethod
    def combiner(self) -> Combiner:
        """The combiner contracting the group's values."""

    def finalize(self, value: Any) -> Any:
        """Reduce-side post-processing (identity by default)."""
        return value


class Count(Aggregation):
    """Number of rows in the group."""

    def initial(self, row: Row) -> int:
        return 1

    def combiner(self) -> Combiner:
        return SumCombiner()


class SumField(Aggregation):
    """Sum of one numeric field."""

    def __init__(self, field: int) -> None:
        self.field = field

    def initial(self, row: Row) -> float:
        return row[self.field]

    def combiner(self) -> Combiner:
        return SumCombiner()


class Min(Aggregation):
    def __init__(self, field: int) -> None:
        self.field = field

    def initial(self, row: Row) -> float:
        return row[self.field]

    def combiner(self) -> Combiner:
        return MinCombiner()


class Max(Aggregation):
    def __init__(self, field: int) -> None:
        self.field = field

    def initial(self, row: Row) -> float:
        return row[self.field]

    def combiner(self) -> Combiner:
        return MaxCombiner()


class Mean(Aggregation):
    """Average of one numeric field, via (count, total) pairs."""

    def __init__(self, field: int) -> None:
        self.field = field

    def initial(self, row: Row) -> tuple:
        return (1, row[self.field])

    def combiner(self) -> Combiner:
        return MeanCombiner()

    def finalize(self, value: tuple) -> float:
        count, total = value
        return total / count if count else 0.0


class CountDistinct(Aggregation):
    """Number of distinct values of one field within the group."""

    def __init__(self, field: int) -> None:
        self.field = field

    def initial(self, row: Row) -> frozenset:
        return frozenset({row[self.field]})

    def combiner(self) -> Combiner:
        return SetUnionCombiner()

    def finalize(self, value: frozenset) -> int:
        return len(value)


class MultiAggregation(Aggregation):
    """Several aggregations evaluated together (values are tuples)."""

    def __init__(self, parts: list[Aggregation]) -> None:
        if not parts:
            raise ValueError("MultiAggregation needs at least one part")
        self.parts = parts

    def initial(self, row: Row) -> tuple:
        return tuple(part.initial(row) for part in self.parts)

    def combiner(self) -> Combiner:
        return _TupleCombiner([part.combiner() for part in self.parts])

    def finalize(self, value: tuple) -> tuple:
        return tuple(
            part.finalize(component)
            for part, component in zip(self.parts, value)
        )


class _TupleCombiner(Combiner):
    """Combines component-wise over a tuple of sub-combiners."""

    def __init__(self, combiners: list[Combiner]) -> None:
        self.combiners = combiners
        self.commutative = all(c.commutative for c in combiners)
        self.exact = all(c.exact for c in combiners)

    def merge(self, key: Any, values):
        return tuple(
            combiner.merge(key, [value[i] for value in values])
            for i, combiner in enumerate(self.combiners)
        )

    def value_size(self, value) -> float:
        return sum(
            combiner.value_size(component)
            for combiner, component in zip(self.combiners, value)
        )

    def fingerprint(self, value):
        return tuple(
            combiner.fingerprint(component)
            for combiner, component in zip(self.combiners, value)
        )

    def law_leaves(self, exact: bool = False):
        """Component-wise leaf strategy for the law harness."""
        from hypothesis import strategies as st

        from repro.analysis.laws import leaf_strategy_for

        parts = [leaf_strategy_for(c, exact=exact) for c in self.combiners]
        if any(part is None for part in parts):
            return None
        return st.tuples(*parts)

    def law_exact_leaves(self):
        return self.law_leaves(exact=True)
