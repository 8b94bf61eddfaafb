"""The Partition algebra: the data held at every contraction-tree node.

A Partition maps keys to combined values.  Combining two partitions applies
the job's Combiner per key; the work charged is the combiner's declared merge
cost, scaled by the job's combine cost factor.  Charges go to the caller's
:class:`~repro.telemetry.Telemetry`, so they attribute to every open span
(run, window update, phase, tree level, task) at once.  A partition's
stable content id is made where it is first read (:attr:`Partition.uid`),
by the fold the restore sweep uses: a combine and a map task make none.
:func:`map_partitions` is the one walk over the partitions a tree's state
nests, for the process seam and the restore sweep alike.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.common.hashing import content_id, stable_hash
from repro.core.identity import xor_entry_hashes, xor_flat_entry_hashes
from repro.telemetry import Phase, Telemetry

if TYPE_CHECKING:  # avoid a runtime cycle with repro.mapreduce
    from repro.mapreduce.combiners import Combiner

class Partition:
    """An immutable key -> combined-value mapping with a content id.

    The id, :attr:`uid`, is made at its first read and kept in ``_uid``
    (``None`` until then): no folding, rotating or coalescing tree reads
    one, so their nodes never pay for it."""

    __slots__ = ("entries", "_uid")

    def __init__(self, entries: Mapping[Any, Any], uid: int | None = None) -> None:
        self.entries: dict[Any, Any] = dict(entries)
        self._uid = uid

    @property
    def uid(self) -> int:
        """The fingerprint of the entries, made here on the first read by
        the restore sweep's fold, or the one recorded (a checkpoint's, a
        caller's)."""
        uid = self._uid
        if uid is None:
            uid = self._uid = _fingerprint_entries(self.entries)
        return uid

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "Partition":
        return _EMPTY

    @staticmethod
    def from_value_lists(
        buffer: Mapping[Any, list[Any]], combiner: Combiner
    ) -> "Partition":
        """Build a partition from per-key value lists (a Map task's buffer)."""
        entries: dict[Any, Any] = {}
        for key, values in buffer.items():
            entries[key] = values[0] if len(values) == 1 else combiner.merge(key, values)
        return _adopt(entries)

    # -- protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other: object) -> bool:
        """Equal entries; two uids are compared only where both are made,
        so a comparison makes none."""
        if not isinstance(other, Partition):
            return NotImplemented
        mine, theirs = self._uid, other._uid
        if mine is not None and theirs is not None and mine != theirs:
            return False
        return self.entries == other.entries

    def __hash__(self) -> int:
        return self.uid

    def __reduce__(self) -> tuple:
        # Two fields, not the default slot-state dict: a checkpoint and
        # the process seam pickle every partition through here, a uid
        # never made as ``None``.
        return (_unpickle_partition, (self.entries, self._uid))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        uid = "unmade" if self._uid is None else f"{self._uid:#x}"
        return f"Partition({len(self.entries)} keys, uid={uid})"

    def get(self, key: Any, default: Any = None) -> Any:
        return self.entries.get(key, default)

    def keys(self):
        return self.entries.keys()

    def items(self):
        return self.entries.items()

    def record_weight(self, combiner: Combiner) -> float:
        """Total abstract size of the partition, in combiner size units:
        its length, as a float, under a combiner that prices every value
        at 1.0 (:func:`_priced_by_count`)."""
        if _priced_by_count(combiner):
            return float(len(self.entries))
        return sum(combiner.value_size(v) for v in self.entries.values())


def _unpickle_partition(
    entries: dict[Any, Any], uid: int | None = None
) -> Partition:
    """A partition that takes ``entries`` as its own, under ``uid`` (or
    none yet): no copy and no fingerprint.  For a dict nobody else holds
    -- a combine's result, a map task's leaf, an unpickled partition
    (around the very objects the unpickler made; a uid is carried as
    written, and a restore proves it, or makes a missing one, in its
    sweep) -- where the public constructor's copy would be waste.  A
    checkpoint names this function, so the name stays; it is one call a
    partition at load, not two."""
    partition = object.__new__(Partition)
    partition.entries = entries
    partition._uid = uid
    return partition


#: :func:`_unpickle_partition`, by the name the engine's own builders use.
_adopt = _unpickle_partition

_ENTRIES = attrgetter("entries")


def count_keys(partitions: Iterable[Partition]) -> int:
    """Keys held over ``partitions``, with no Python frame a partition."""
    return sum(map(len, map(_ENTRIES, partitions)))


#: ``stable_hash(n, salt="pfp")`` by ``n``: the length term of every
#: fingerprint, as many as the distinct partition lengths built so far.
_LENGTH_TERMS: dict[int, int] = {}


def _length_term(n: int) -> int:
    term = _LENGTH_TERMS.get(n)
    if term is None:
        # Through the module global, so a counter wrapped round
        # ``repro.core.partition.stable_hash`` sees every miss.
        term = _LENGTH_TERMS[n] = stable_hash(n, salt="pfp")
    return term


def _entry_folds(
    mappings: Sequence[dict[Any, Any]], memo: dict | None = None
) -> list[int]:
    """The XOR of each mapping's entry hashes (key order must not matter):
    the flat fold (``xor_flat_entry_hashes``) where every key is a flat
    tuple and every value an exact ``int`` (matrix's reducers), else the
    entry kernel, reading and filling ``memo``.  Both make the same
    integers with the same digests."""
    folded = xor_flat_entry_hashes(mappings, salt="pent")
    if folded is None:
        folded = xor_entry_hashes(mappings, salt="pent", memo=memo)
    return folded


def _fingerprint_entries(entries: dict[Any, Any]) -> int:
    (entry_terms,) = _entry_folds((entries,))
    return _length_term(len(entries)) ^ entry_terms


def first_unsound(partitions: Sequence[Partition]) -> Partition | None:
    """The first of ``partitions`` whose entries no longer hash to its
    recorded uid, or ``None``; a partition whose uid was never made gets
    the one its entries hash to.  The one fingerprint check: the shared
    empty partition's symbolic uid passes only over no entries.

    The entry hashes are folded in one :func:`_entry_folds` call, the
    kernel's with an entry memo local to this call.  The memo is sound
    because ``partitions`` holds every object it names alive, and
    unmodified, until the call returns; it changes no verdict, and every
    partition still pays its length term and is compared whole.  So a
    partition changed before its uid was first read is proved against
    nothing: it takes the uid of what it holds.
    """
    folded = _entry_folds([partition.entries for partition in partitions], {})
    terms = _LENGTH_TERMS
    empty = _EMPTY._uid
    for partition, acc in zip(partitions, folded):
        size = len(partition.entries)
        term = terms.get(size)
        if term is None:
            term = _length_term(size)
        uid = partition._uid
        if uid is None:
            partition._uid = term ^ acc
        elif uid != term ^ acc and (size or uid != empty):
            return partition
    return None


#: ``Combiner``'s own ``value_size`` and ``merge_cost``, bound on first use
#: (``repro.mapreduce`` imports this module).
_UNIT_HOOKS: tuple[Any, ...] = ()


def _priced_by_count(combiner: Combiner) -> bool:
    """Whether ``combiner`` keeps ``Combiner``'s pricing, overridden
    neither on its class nor on the instance: every value is 1.0, so a
    merge of ``m`` values costs ``float(m)`` (the default ``merge_cost``'s
    sum of ``m`` ones, to the bit) and a copy-through ``0.1``."""
    global _UNIT_HOOKS
    if not _UNIT_HOOKS:
        from repro.mapreduce.combiners import Combiner

        _UNIT_HOOKS = (Combiner.value_size, Combiner.merge_cost)
    kind = type(combiner)
    own = getattr(combiner, "__dict__", ())
    return (
        (kind.value_size, kind.merge_cost) == _UNIT_HOOKS
        and "value_size" not in own
        and "merge_cost" not in own
    )


_EMPTY = Partition({}, uid=content_id("empty-partition"))


_NO_MARK = object()


def map_partitions(
    value: Any, leaf: Callable[[Any], Any], mark: Any = _NO_MARK
) -> Any:
    """A copy of ``value`` with ``leaf`` applied to each partition (or
    ``mark``) in it, in a fixed order.

    Tree state nests partitions in ``list`` / ``tuple`` / ``dict`` values
    (``_bucket_leaves``, ``_pending``, the strawman's cache triples) next
    to ints and ``None``; anything else is returned as it is.  ``mark`` is
    the process seam's stand-in for a partition the receiver holds.
    """
    kind = type(value)
    if kind is Partition or value is mark:
        return leaf(value)
    if kind is list:
        return [map_partitions(item, leaf, mark) for item in value]
    if kind is tuple:
        return tuple(map_partitions(item, leaf, mark) for item in value)
    if kind is dict:
        return {
            key: map_partitions(item, leaf, mark) for key, item in value.items()
        }
    return value


def combine_partitions(
    partitions: Sequence[Partition],
    combiner: Combiner,
    telemetry: Telemetry | None = None,
    phase: Phase = Phase.CONTRACTION,
    cost_factor: float = 1.0,
    invocation_overhead: float = 0.0,
) -> Partition:
    """Combine several partitions into one, charging per-key merge cost.

    This is the single Combiner-invocation primitive every contraction tree
    is built from.  Associativity of the combiner makes any combination
    order produce the same result.

    ``invocation_overhead`` is a fixed charge per *real* merge (two or more
    non-empty inputs), modelling the task-launch and data-movement cost a
    combiner invocation has on a real cluster; pass-throughs are free.
    """
    return combine_charged(
        partitions, combiner, telemetry, phase, cost_factor, invocation_overhead
    )[0]


#: Fewest keys two inputs hold between them for a count-priced combine to
#: take the pair path (:func:`_merge_pair`): below it numpy's fixed cost
#: per call outweighs the per-key loop it replaces.
_PAIR_PATH_MIN_KEYS = 64


def combine_charged(  # analysis: charge-in-caller-span (the level mark)
    partitions: Sequence[Partition],
    combiner: Combiner,
    telemetry: Telemetry | None = None,
    phase: Phase = Phase.CONTRACTION,
    cost_factor: float = 1.0,
    invocation_overhead: float = 0.0,
    by_count: bool | None = None,
) -> tuple[Partition, float]:
    """:func:`combine_partitions`, and what its merge costs: the very
    float charged to ``telemetry`` (``0.0`` when no merge runs), which
    the executor logs as the node's cost.  ``by_count`` is for a caller
    that already holds both facts the combine would derive: it is
    :func:`_priced_by_count` of ``combiner``, and ``partitions`` are two
    or more non-empty inputs (the executor's node).

    The cost is ``combiner.merge_cost`` a merged key plus
    ``combiner.value_size(value) * 0.1`` a key copied through, summed in
    the order of the key gather (every input's keys in turn, each key
    where it is first seen); a combiner :func:`_priced_by_count` is
    charged the same floats, ``float(len(values))`` and ``0.1``, without
    a call, so it is called per key only where keys merge.  The result's
    entries are in gather order too; it makes no uid (:attr:`Partition.uid`
    makes one where it is read).

    Three ways build the result, to the same entries and float.  Two
    non-empty inputs of such a combiner take a pair way, whose gather
    order is ``dict(first)`` updated by ``second``: holding at least
    ``_PAIR_PATH_MIN_KEYS`` keys between them :func:`_merge_pair`, whose
    per-key work is all at C level except at the merged keys, and fewer
    the small-pair loop, one pass over ``first``'s keys that merges where
    ``second`` holds the key and adds ``2.0`` or ``0.1`` as it goes, then
    ``0.1`` for each of ``second``'s keys ``first`` lacks.  Any other
    combine gathers each key's values, then makes one pass that merges,
    prices and collects.
    """
    if by_count is None:
        partitions = [p for p in partitions if p]
        if not partitions:
            return Partition.empty(), 0.0
        if len(partitions) == 1:
            return partitions[0], 0.0
        by_count = _priced_by_count(combiner)
    if by_count and len(partitions) == 2:
        first, second = partitions[0].entries, partitions[1].entries
        if len(first) + len(second) >= _PAIR_PATH_MIN_KEYS:
            entries, cost = _merge_pair(first, second, combiner)
        else:
            entries = dict(first)
            entries.update(second)
            cost = 0.0
            copied = len(second)  # ``second``'s keys ``first`` lacks
            for key, value in first.items():
                if key in second:
                    entries[key] = combiner.merge(key, [value, second[key]])
                    cost += 2.0
                    copied -= 1
                else:
                    cost += 0.1
            for _ in range(copied):
                cost += 0.1
    else:
        merged_lists: dict[Any, list[Any]] = {}
        for partition in partitions:
            for key, value in partition.entries.items():
                merged_lists.setdefault(key, []).append(value)

        entries = {}
        cost = 0.0
        for key, values in merged_lists.items():
            if len(values) == 1:
                entries[key] = values[0]  # copied through
                cost += 0.1 if by_count else combiner.value_size(values[0]) * 0.1
                continue
            entries[key] = combiner.merge(key, values)
            cost += (
                float(len(values)) if by_count else combiner.merge_cost(key, values)
            )
    charged = cost * cost_factor + invocation_overhead
    if telemetry is not None:
        telemetry.charge(phase, charged)
    return _adopt(entries), charged


def _merge_pair(
    first: dict[Any, Any], second: dict[Any, Any], combiner: Combiner
) -> tuple[dict[Any, Any], float]:
    """Two inputs of a count-priced combiner, merged per merged key only.

    ``dict(first)`` updated by ``second`` is the gather order: ``first``'s
    keys, then ``second``'s new ones, and a key both hold keeps
    ``first``'s place (and key object).  The membership mask marks
    ``first``'s keys ``second`` holds; ``merge`` runs at those, in gather
    order, on ``[first[key], second[key]]``.  The cost is the loop's sum
    of ``2.0`` a merged key and ``0.1`` a copied one in gather order, and
    ``numpy.cumsum`` adds in that order as the loop does, so its last
    element is the loop's float to the bit (``numpy.sum`` sums pairwise,
    and the builtin ``sum`` compensates floats from Python 3.12)."""
    entries = dict(first)
    entries.update(second)
    mask = np.fromiter(map(second.__contains__, first), bool, len(first))
    for key in compress(first, mask):
        entries[key] = combiner.merge(key, [first[key], second[key]])
    costs = np.full(len(entries), 0.1)
    costs[: len(first)][mask] = 2.0
    return entries, float(np.cumsum(costs)[-1])
