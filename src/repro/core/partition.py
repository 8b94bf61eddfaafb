"""The Partition algebra: the data held at every contraction-tree node.

A Partition maps keys to combined values.  Combining two partitions applies
the job's Combiner per key; the work charged is the combiner's declared merge
cost, scaled by the job's combine cost factor.  Charges go to the caller's
:class:`~repro.telemetry.Telemetry`, so they attribute to every open span
(run, window update, phase, tree level, task) at once.  Partitions carry a
stable content id so identical results share memo entries.
:func:`map_partitions` is the one walk over the partitions a tree's state
nests, for the process seam and the restore sweep alike.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.common.hashing import content_id, stable_hash
from repro.core.identity import ENTRY_HASHES, xor_entry_hashes
from repro.core.identity import xor_flat_entry_hashes, xor_leaf
from repro.telemetry import Phase, Telemetry

if TYPE_CHECKING:  # avoid a runtime cycle with repro.mapreduce
    from repro.mapreduce.combiners import Combiner

class Partition:
    """An immutable key -> combined-value mapping with a content id."""

    __slots__ = ("entries", "uid")

    def __init__(self, entries: Mapping[Any, Any], uid: int | None = None) -> None:
        self.entries: dict[Any, Any] = dict(entries)
        if uid is None:
            uid = _fingerprint_entries(self.entries)
        self.uid = uid

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "Partition":
        return _EMPTY

    @staticmethod
    def from_value_lists(
        buffer: Mapping[Any, list[Any]],
        combiner: Combiner,
        encoded: Mapping[Any, bytes] | None = None,
    ) -> "Partition":
        """Build a partition from per-key value lists (a Map task's buffer);
        ``encoded`` is key -> ``encode_key(key)`` where the caller made it (to
        route the key): the by-value entries' hashes are finished from those
        bytes (:func:`~repro.core.identity.xor_leaf`)."""
        entries: dict[Any, Any] = {}
        for key, values in buffer.items():
            entries[key] = values[0] if len(values) == 1 else combiner.merge(key, values)
        return _adopt(entries, xor_leaf(entries, encoded) ^ _length_term(len(entries)))

    # -- protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.uid == other.uid and self.entries == other.entries

    def __hash__(self) -> int:
        return self.uid

    def __reduce__(self) -> tuple:
        # Two fields, not the default slot-state dict: a checkpoint and
        # the process seam pickle every partition through here.
        return (_unpickle_partition, (self.entries, self.uid))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Partition({len(self.entries)} keys, uid={self.uid:#x})"

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


def _unpickle_partition(entries: dict[Any, Any], uid: int) -> Partition:
    """A partition that takes ``entries`` as its own, under ``uid``: no
    copy and no fingerprint.  For a dict nobody else holds, whose uid is
    already made -- a combine's result, a map task's leaf, an unpickled
    partition (around the very objects the unpickler made; the uid is
    carried as written, and a restore re-proves it in its sweep) -- where
    the public constructor's copy would be waste.  A checkpoint names
    this function, so the name stays; it is one call a partition at
    load, not two."""
    partition = object.__new__(Partition)
    partition.entries = entries
    partition.uid = uid
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


def _fingerprint_entries(entries: Mapping[Any, Any]) -> int:
    # Key order must not matter: XOR per-entry hashes (stable, order-free).
    (entry_terms,) = xor_entry_hashes((entries,), salt="pent")
    return _length_term(len(entries)) ^ entry_terms


def first_unsound(partitions: Sequence[Partition]) -> Partition | None:
    """The first of ``partitions`` whose entries no longer hash to its uid,
    or ``None``.  The one fingerprint check: the shared empty partition's
    symbolic uid passes only over no entries.

    Two paths of ``repro.core.identity`` fold each partition's entry
    hashes, to the same integers with the same digests: the flat fold
    (``xor_flat_entry_hashes``) where every key is a flat tuple and every
    value an exact ``int`` (matrix's reducers), else one call of the
    entry kernel with an entry memo local to this call.  The memo is
    sound because ``partitions`` holds every object it names alive, and
    unmodified, until the call returns; neither path changes a verdict,
    and every partition still pays its length term and is compared whole.
    """
    mappings = [partition.entries for partition in partitions]
    folded = xor_flat_entry_hashes(mappings, salt="pent")
    if folded is None:
        folded = xor_entry_hashes(mappings, salt="pent", memo={})
    terms = _LENGTH_TERMS
    empty = _EMPTY.uid
    for partition, acc in zip(partitions, folded):
        size = len(partition.entries)
        term = terms.get(size)
        if term is None:
            term = _length_term(size)
        if partition.uid != term ^ acc and (size or partition.uid != empty):
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


def combined_uid(
    inputs: Sequence["Partition"],
    merged: Sequence[tuple[Any, list[Any]]],
    delta_digests: int,
    entries: Mapping[Any, Any],
) -> int:
    """``_fingerprint_entries(entries)`` for the result of combining ``inputs``.

    ``merged`` is what the combine's merge loop collected on its way
    through the key gather: each key more than one input held, with the
    value each of those inputs held for it, in gather order; ``entries``
    is what the combine produced.  A fingerprint is an XOR of per-entry
    hashes, so the result's equals the XOR of the inputs' with the length
    terms swapped and, for each merged key (every one is in ``entries``),
    those inputs' entries taken out and the merged entry put in.  Keys one
    input held pass through unhashed.  That is ``m + 1`` digests per key
    ``m`` inputs held -- all finished from one encoding of the key -- plus
    one per input: ``delta_digests``, which the merge loop counted too.
    When it would not be fewer than hashing ``entries`` afresh, they are
    hashed afresh.  (The rule counts a length term as a digest, cached or
    not.)  Either way each pair :func:`~repro.core.identity.by_value`
    takes is looked up in ``ENTRY_HASHES`` first: afresh, every entry's
    (any other entry goes through the entry kernel); in the delta, each
    pair of a merged key.  The misses go to the pair digester together,
    each key encoded once.  A hit is the hash of the pair's own bytes: it
    saves a digest and moves no uid, and the rule still counts it.

    Precondition: every input's ``uid`` is the fingerprint of its entries.
    Everything the engine builds satisfies it, and the restore sweep
    (:func:`~repro.recovery.repair.verify_restored`) proves it of every
    partition a restored engine holds before a combine reads one.  From an
    input whose entries diverged from its uid the delta yields a uid that
    fails :func:`first_unsound` too (hashing afresh would fingerprint the
    corrupt content as valid); the entries are the same either way.
    """
    memo = ENTRY_HASHES
    if delta_digests >= len(entries):
        return _length_term(len(entries)) ^ memo.xor(entries)
    acc = _length_term(len(entries))
    for partition in inputs:
        acc ^= partition.uid ^ _length_term(len(partition.entries))
    return acc ^ memo.xor_merged(merged, entries)


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
    entries are in gather order too, and :func:`combined_uid` makes its
    uid from the merged keys and the delta's digest count.

    Three ways build the result, to the same entries, uid and float.  Two
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
            entries, merged, cost = _merge_pair(first, second, combiner)
        else:
            entries = dict(first)
            entries.update(second)
            merged = []
            cost = 0.0
            for key, value in first.items():
                if key in second:
                    values = [value, second[key]]
                    merged.append((key, values))
                    entries[key] = combiner.merge(key, values)
                    cost += 2.0
                else:
                    cost += 0.1
            for _ in range(len(second) - len(merged)):
                cost += 0.1
        delta_digests = 2 + 3 * len(merged)
    else:
        merged_lists: dict[Any, list[Any]] = {}
        for partition in partitions:
            for key, value in partition.entries.items():
                merged_lists.setdefault(key, []).append(value)

        entries = {}
        merged = []
        delta_digests = len(partitions)
        cost = 0.0
        for key, values in merged_lists.items():
            if len(values) == 1:
                entries[key] = values[0]  # copied through
                cost += 0.1 if by_count else combiner.value_size(values[0]) * 0.1
                continue
            merged.append((key, values))
            delta_digests += len(values) + 1
            entries[key] = combiner.merge(key, values)
            cost += (
                float(len(values)) if by_count else combiner.merge_cost(key, values)
            )
    charged = cost * cost_factor + invocation_overhead
    if telemetry is not None:
        telemetry.charge(phase, charged)
    uid = combined_uid(partitions, merged, delta_digests, entries)
    return _adopt(entries, uid), charged


def _merge_pair(
    first: dict[Any, Any], second: dict[Any, Any], combiner: Combiner
) -> tuple[dict[Any, Any], list[tuple[Any, list[Any]]], float]:
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
    merged: list[tuple[Any, list[Any]]] = []
    for key in compress(first, mask):
        values = [first[key], second[key]]
        merged.append((key, values))
        entries[key] = combiner.merge(key, values)
    costs = np.full(len(entries), 0.1)
    costs[: len(first)][mask] = 2.0
    return entries, merged, float(np.cumsum(costs)[-1])
