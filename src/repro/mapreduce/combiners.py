"""The combiner algebra.

A :class:`Combiner` merges the values emitted for a single key.  Contraction
trees (§2.2) are built from recursive Combiner applications, which requires
**associativity**; rotating trees (§4.1) additionally require
**commutativity**.  Every combiner declares its properties so trees can
validate jobs up front, and exposes a cost hook so the WorkMeter — a view
over the :mod:`repro.telemetry` backbone — charges realistic per-merge work
to every span open at the merge site.

Values flow in *combined form* end to end: the Map function emits values of
the same type the combiner produces (e.g. a count of ``1``), so a leaf value
and an inner-node value are interchangeable — the key property that makes
recursive contraction legal.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import Any, Generic, Sequence, TypeVar

V = TypeVar("V")


class Combiner(ABC, Generic[V]):
    """Merges the multiset of values for one key into a single value."""

    #: Required by every contraction tree.
    associative: bool = True
    #: Required by rotating contraction trees (bucket rotation reorders leaves).
    commutative: bool = True
    #: Merging the same leaves in any bracketing (and, when commutative,
    #: any order) gives an ``==`` value, so an incremental run's outputs
    #: *equal* the from-scratch run's.  ``False`` on combiners whose merge
    #: re-associates float addition: their outputs agree to the tolerance
    #: of :mod:`repro.common.approx`, which is what
    #: ``Slider.verify_outputs`` then checks.  Verified, like the two
    #: above, by :mod:`repro.analysis.laws`.
    exact: bool = True

    @abstractmethod
    def merge(self, key: Any, values: Sequence[V]) -> V:
        """Combine ``values`` (two or more) for ``key`` into one value."""

    def value_size(self, value: V) -> float:
        """Abstract size of a combined value, in records; drives merge cost."""
        return 1.0

    def merge_cost(self, key: Any, values: Sequence[V]) -> float:
        """Work units charged for one merge call (default: input size)."""
        return sum(self.value_size(v) for v in values)

    def fingerprint(self, value: V) -> Any:
        """A stably-hashable projection of a combined value (for content ids)."""
        return value


class SumCombiner(Combiner[float]):
    """Adds numeric values; the workhorse for counting/aggregation jobs.

    ``exact`` over integers (every shipped job that uses it counts); a
    job that sums floats with it should subclass and say ``exact = False``.
    """

    def merge(self, key: Any, values: Sequence[float]) -> float:
        return sum(values)


class CountCombiner(SumCombiner):
    """Alias of SumCombiner used when Map emits ``1`` per occurrence."""


class MinCombiner(Combiner[float]):
    def merge(self, key: Any, values: Sequence[float]) -> float:
        return min(values)


class MaxCombiner(Combiner[float]):
    def merge(self, key: Any, values: Sequence[float]) -> float:
        return max(values)


class MeanCombiner(Combiner[tuple]):
    """Averages via (count, total) pairs so merging stays associative.

    Map emits ``(1, x)``; Reduce divides total by count.
    """

    exact = False  # the totals are float sums

    def merge(self, key: Any, values: Sequence[tuple]) -> tuple:
        count = sum(v[0] for v in values)
        total = sum(v[1] for v in values)
        return (count, total)


class TopKCombiner(Combiner[tuple]):
    """Keeps the ``k`` largest ``(score, item)`` entries.

    Values are tuples of ``(score, item)`` pairs, kept sorted descending.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k

    def merge(self, key: Any, values: Sequence[tuple]) -> tuple:
        merged = [entry for value in values for entry in value]
        merged.sort(key=lambda e: (-e[0], e[1:]))
        return tuple(merged[: self.k])

    def value_size(self, value: tuple) -> float:
        return max(1.0, float(len(value)))


class KSmallestCombiner(Combiner[tuple]):
    """Keeps the ``k`` smallest entries — the KNN candidate-set combiner."""

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k

    def merge(self, key: Any, values: Sequence[tuple]) -> tuple:
        merged = [entry for value in values for entry in value]
        return tuple(heapq.nsmallest(self.k, merged))

    def value_size(self, value: tuple) -> float:
        return max(1.0, float(len(value)))


class SetUnionCombiner(Combiner[frozenset]):
    """Unions sets of items (e.g. distinct users per key)."""

    def merge(self, key: Any, values: Sequence[frozenset]) -> frozenset:
        out: set = set()
        for value in values:
            out.update(value)
        return frozenset(out)

    def value_size(self, value: frozenset) -> float:
        return max(1.0, float(len(value)))

    def fingerprint(self, value: frozenset) -> Any:
        return tuple(sorted(value, key=repr))


class ListConcatCombiner(Combiner[tuple]):
    """Concatenates value tuples.

    Associative but **not** commutative: rotating trees reject jobs that use
    it, which exercises the combiner-contract validation path.
    """

    commutative = False

    def merge(self, key: Any, values: Sequence[tuple]) -> tuple:
        out: list = []
        for value in values:
            out.extend(value)
        return tuple(out)

    def value_size(self, value: tuple) -> float:
        return max(1.0, float(len(value)))


class VectorSumCombiner(Combiner[tuple]):
    """Sums ``(count, vector)`` pairs — the K-Means centroid accumulator.

    Vectors are plain tuples of floats so values stay immutable and stably
    hashable.
    """

    exact = False  # the vectors are float sums

    def merge(self, key: Any, values: Sequence[tuple]) -> tuple:
        count = 0
        total: list[float] | None = None
        for c, vec in values:
            count += c
            if total is None:
                total = list(vec)
            else:
                for i, x in enumerate(vec):
                    total[i] += x
        return (count, tuple(total if total is not None else ()))

    def merge_cost(self, key: Any, values: Sequence[tuple]) -> float:
        # Cost scales with vector dimensionality, not record weight.
        dim = max((len(v[1]) for v in values), default=1)
        return len(values) * max(1.0, dim / 8.0)
