"""Vectorized batch kernels for the numeric combiners.

A kernel replaces the per-key Python ``combiner.merge`` loop of
:func:`~repro.core.partition.combine_partitions` with numpy array sums
batched *across the key dimension* — the payoff of dispatching a fused
combine through the compiled plan.  The contract is strict bit-identity
with the scalar path:

* **summation order** — Python's ``sum`` is a sequential left fold, and
  numpy's ``ndarray.sum`` is pairwise, which rounds differently.  Float
  columns are therefore accumulated column-by-column (``acc = acc +
  mat[:, j]``), reproducing the scalar fold's exact IEEE operation
  sequence per key.
* **type preservation** — all-int value lists sum through int64 (exact
  under the registration bounds) back to Python ints, so ``5`` never
  becomes ``5.0`` — repr-based output fingerprints and stable content
  hashes depend on it.  Mixed or unexpected types fall back to the
  combiner's own ``merge`` per key.
* **cost parity** — per-key costs accumulate through the combiner's own
  ``value_size``/``merge_cost`` hooks, in the scalar path's dict order.

Kernels register against *exact* combiner types: a subclass may override
any hook, so it never inherits its parent's kernel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.partition import Partition, combined_uid
from repro.metrics import Phase, WorkMeter

if TYPE_CHECKING:  # pragma: no cover - type-only, avoids a runtime cycle
    from repro.mapreduce.combiners import Combiner

try:  # pragma: no cover - numpy is a baked-in dependency everywhere we run
    import numpy as _np
except Exception:  # pragma: no cover - kernels degrade to scalar execution
    _np = None

#: int64 column sums are exact while every value fits in 2**40 and a key
#: merges fewer than 2**20 values: |total| < 2**60 < 2**63 at every prefix.
_INT_VALUE_BOUND = 1 << 40
_INT_COUNT_BOUND = 1 << 20


class BatchKernel(ABC):
    """One combiner type's vectorized key-batched merge."""

    name: str = "batch"

    @abstractmethod
    def batch(
        self, merged_lists: dict[Any, list[Any]], combiner: "Combiner"
    ) -> tuple[dict[Any, Any], float]:
        """Merge every key's value list; return ``(entries, cost)``.

        Must reproduce the scalar loop of ``combine_partitions`` exactly:
        same entry values *and types*, same dict order, same float cost
        accumulation sequence.
        """


def _cost_pass(
    merged_lists: dict[Any, list[Any]],
    results: dict[Any, Any],
    combiner: "Combiner",
) -> tuple[dict[Any, Any], float]:
    """Assemble entries and fold costs in the scalar path's dict order."""
    entries: dict[Any, Any] = {}
    cost = 0.0
    for key, values in merged_lists.items():
        if len(values) == 1:
            entries[key] = values[0]
            cost += combiner.value_size(values[0]) * 0.1  # copy-through cost
        else:
            entries[key] = results[key]
            cost += combiner.merge_cost(key, values)
    return entries, cost


def _left_fold_columns(mat: "Any", count: int) -> "Any":
    """Sequential per-column accumulation matching Python's ``sum`` fold."""
    acc = _np.zeros(mat.shape[0], dtype=_np.float64)
    for j in range(count):
        acc = acc + mat[:, j]
    return acc


class SumKernel(BatchKernel):
    """Batched ``sum(values)`` for :class:`SumCombiner`/:class:`CountCombiner`."""

    name = "sum"

    def batch(
        self, merged_lists: dict[Any, list[Any]], combiner: "Combiner"
    ) -> tuple[dict[Any, Any], float]:
        results: dict[Any, Any] = {}
        int_groups: dict[int, tuple[list[Any], list[list[int]]]] = {}
        float_groups: dict[int, tuple[list[Any], list[list[float]]]] = {}
        for key, values in merged_lists.items():
            if len(values) == 1:
                continue
            if (
                len(values) < _INT_COUNT_BOUND
                and all(type(v) is int for v in values)
                and all(-_INT_VALUE_BOUND < v < _INT_VALUE_BOUND for v in values)
            ):
                keys, rows = int_groups.setdefault(len(values), ([], []))
            elif all(type(v) is float for v in values):
                keys, rows = float_groups.setdefault(len(values), ([], []))
            else:
                results[key] = combiner.merge(key, values)
                continue
            keys.append(key)
            rows.append(values)
        for _count, (keys, rows) in int_groups.items():
            sums = _np.array(rows, dtype=_np.int64).sum(axis=1).tolist()
            for key, total in zip(keys, sums):
                results[key] = total
        for count, (keys, rows) in float_groups.items():
            mat = _np.array(rows, dtype=_np.float64)
            for key, total in zip(keys, _left_fold_columns(mat, count).tolist()):
                results[key] = total
        return _cost_pass(merged_lists, results, combiner)


class VectorSumKernel(BatchKernel):
    """Batched ``(count, vector)`` accumulation for :class:`VectorSumCombiner`."""

    name = "vector-sum"

    def batch(
        self, merged_lists: dict[Any, list[Any]], combiner: "Combiner"
    ) -> tuple[dict[Any, Any], float]:
        results: dict[Any, Any] = {}
        groups: dict[tuple[int, int], tuple[list, list, list]] = {}
        for key, values in merged_lists.items():
            if len(values) == 1:
                continue
            if not self._vectorizable(values):
                results[key] = combiner.merge(key, values)
                continue
            dim = len(values[0][1])
            keys, count_rows, cubes = groups.setdefault(
                (len(values), dim), ([], [], [])
            )
            keys.append(key)
            count_rows.append([v[0] for v in values])
            cubes.append([v[1] for v in values])
        for (count, _dim), (keys, count_rows, cubes) in groups.items():
            counts = _np.array(count_rows, dtype=_np.int64).sum(axis=1).tolist()
            cube = _np.array(cubes, dtype=_np.float64)  # (keys, values, dim)
            acc = cube[:, 0, :].copy()
            for j in range(1, count):
                acc = acc + cube[:, j, :]
            totals = acc.tolist()
            for key, total_count, total in zip(keys, counts, totals):
                results[key] = (total_count, tuple(total))
        return _cost_pass(merged_lists, results, combiner)

    @staticmethod
    def _vectorizable(values: Sequence[Any]) -> bool:
        if len(values) >= _INT_COUNT_BOUND:
            return False
        first = values[0]
        if type(first) is not tuple or len(first) != 2:
            return False
        dim = len(first[1]) if type(first[1]) is tuple else -1
        if dim <= 0:
            return False
        for count, vec in values:
            if type(count) is not int or not (
                -_INT_VALUE_BOUND < count < _INT_VALUE_BOUND
            ):
                return False
            if type(vec) is not tuple or len(vec) != dim:
                return False
            if not all(type(x) is float for x in vec):
                return False
        return True


# -- the registry ------------------------------------------------------------

_KERNELS: dict[type, BatchKernel] = {}


def register_kernel(combiner_type: type, kernel: BatchKernel) -> None:
    """Register ``kernel`` for the *exact* type ``combiner_type``."""
    _KERNELS[combiner_type] = kernel


def unregister_kernel(combiner_type: type) -> None:
    _KERNELS.pop(combiner_type, None)


def kernel_for(combiner: "Combiner") -> BatchKernel | None:
    """The registered kernel for this combiner's exact type, if usable."""
    if _np is None:
        return None
    return _KERNELS.get(type(combiner))


def registered_kernel_types() -> tuple[type, ...]:
    """Every combiner type carrying a kernel — the law gate's extra corpus."""
    return tuple(_KERNELS)


def fusion_legal(combiner: "Combiner") -> bool:
    """May combines of this combiner be batched into a FusedStep?

    Legality is tied to the declared algebra the contract checker's law
    gate falsifies: batching re-associates the merge over the key
    dimension (``associative``) and a batch member may sit anywhere in a
    fused run (``commutative``); an order-sensitive combiner like the
    NetSession ``AuditCombiner`` is never fused even if a kernel exists
    for it.  ``registered_kernel_types`` feeds these combiners into
    ``repro.analysis --self`` so a falsified law fails CI before a kernel
    could ship.
    """
    return (
        kernel_for(combiner) is not None
        and combiner.associative
        and combiner.commutative
    )


def fused_combine_partitions(  # analysis: charge-in-caller-span (tree task span)
    partitions: Sequence[Partition],
    combiner: "Combiner",
    kernel: BatchKernel,
    meter: WorkMeter | None = None,
    phase: Phase = Phase.CONTRACTION,
    cost_factor: float = 1.0,
    invocation_overhead: float = 0.0,
) -> Partition:
    """Kernel-dispatched twin of :func:`~repro.core.partition.combine_partitions`.

    Identical gather, charge, and result semantics; only the per-key merge
    loop is replaced by ``kernel.batch``.  Poison handling is not
    supported here — the executor falls back to the scalar path whenever a
    poison context is configured.
    """
    non_empty = [p for p in partitions if p]
    if not non_empty:
        return Partition.empty()
    if len(non_empty) == 1:
        return non_empty[0]

    merged_lists: dict[Any, list[Any]] = {}
    for partition in non_empty:
        for key, value in partition.entries.items():
            merged_lists.setdefault(key, []).append(value)

    entries, cost = kernel.batch(merged_lists, combiner)
    if meter is not None:
        meter.charge(phase, cost * cost_factor + invocation_overhead)
    return Partition(entries, uid=combined_uid(non_empty, merged_lists, entries))


def _register_defaults() -> None:
    from repro.mapreduce.combiners import (
        CountCombiner,
        SumCombiner,
        VectorSumCombiner,
    )

    register_kernel(SumCombiner, SumKernel())
    register_kernel(CountCombiner, SumKernel())
    register_kernel(VectorSumCombiner, VectorSumKernel())


_register_defaults()
