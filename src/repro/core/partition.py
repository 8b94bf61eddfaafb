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

from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.common.hashing import content_id, entry_hash, entry_hash_encoded
from repro.common.hashing import entry_hasher, stable_hash, xor_entry_hashes
from repro.telemetry import Phase, Telemetry

if TYPE_CHECKING:  # avoid a runtime cycle with repro.mapreduce
    from repro.mapreduce.combiners import Combiner

#: Called when a combiner raises for one key: ``(key, values, exc)``.
#: Returns ``(recovered, value)`` — recovered True splices ``value`` in as
#: the merge result (a retry succeeded), False drops the key (quarantined).
#: An absent handler re-raises the original exception.
PoisonHandler = Callable[[Any, list[Any], BaseException], "tuple[bool, Any]"]


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
        on_poison: PoisonHandler | None = None,
        encoded: Mapping[Any, bytes] | None = None,
    ) -> "Partition":
        """Build a partition from per-key value lists (a Map task's buffer);
        ``encoded`` is key -> ``encode_key(key)`` where the caller made it (to
        route the key): the entry's hash is finished from those bytes."""
        entries: dict[Any, Any] = {}
        acc = 0
        for key, values in buffer.items():
            if len(values) == 1:
                value = values[0]
            else:
                try:
                    value = combiner.merge(key, values)
                except Exception as exc:
                    if on_poison is None:
                        raise
                    recovered, value = on_poison(key, values, exc)
                    if not recovered:
                        continue
            entries[key] = value
            if encoded is None or type(key) is float:
                acc ^= entry_hash(key, value, salt="pent")
            else:
                acc ^= entry_hash_encoded(encoded[key], value, salt="pent")
        return Partition(entries, uid=acc ^ stable_hash(len(entries), salt="pfp"))

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Partition({len(self.entries)} keys, uid={self.uid:#x})"

    def get(self, key: Any, default: Any = None) -> Any:
        return self.entries.get(key, default)

    def keys(self):
        return self.entries.keys()

    def items(self):
        return self.entries.items()

    def record_weight(self, combiner: Combiner) -> float:
        """Total abstract size of the partition, in combiner size units."""
        return sum(combiner.value_size(v) for v in self.entries.values())

    def verify_fingerprint(
        self, memo: dict[tuple[int, int], int] | None = None
    ) -> bool:
        """Check that ``entries`` still hash to the recorded ``uid``.

        The uid assigned at construction doubles as a content fingerprint:
        any later mutation of the entries (bit rot, a chaos
        ``CorruptionEvent``) makes the recomputed fingerprint diverge.  The
        shared empty partition carries a symbolic uid rather than a
        computed one, so it is matched by identity of that uid.  ``memo``
        is ``xor_entry_hashes``' identity memo, for a caller that verifies
        many partitions sharing entry objects and keeps them all alive.
        """
        if not self.entries:
            return self.uid in (_EMPTY.uid, _fingerprint_entries(self.entries))
        return self.uid == _fingerprint_entries(self.entries, memo)


def _fingerprint_entries(
    entries: Mapping[Any, Any], memo: dict[tuple[int, int], int] | None = None
) -> int:
    # Key order must not matter: XOR per-entry hashes (stable, order-free).
    return stable_hash(len(entries), salt="pfp") ^ xor_entry_hashes(
        entries, salt="pent", memo=memo
    )


def combined_uid(
    inputs: Sequence["Partition"],
    merged_lists: Mapping[Any, list[Any]],
    entries: Mapping[Any, Any],
) -> int:
    """``_fingerprint_entries(entries)`` for the result of combining ``inputs``.

    ``merged_lists`` is the gather the combine just made (key -> the value
    each input held for it) and ``entries`` what it produced from that.  A
    fingerprint is an XOR of per-entry hashes, so the result's equals the
    XOR of the inputs' with the length terms swapped and, for each key more
    than one input held, those inputs' entries taken out and the merged
    entry (none, if a poison handler dropped the key) put in.  Keys one
    input held pass through unhashed.  That is ``m + 1`` digests per key
    ``m`` inputs held -- all finished from one encoding of the key -- plus
    one per input; when it would not be fewer than hashing ``entries``
    afresh, they are hashed afresh.

    Precondition: every input's ``uid`` is the fingerprint of its entries.
    Everything the engine builds satisfies it, and ``inject_and_repair``
    repairs a flipped slot before a combine reads it.  From an input whose
    entries diverged from its uid the delta yields a uid that fails
    ``verify_fingerprint`` too (hashing afresh would fingerprint the
    corrupt content as valid); the entries are the same either way.
    """
    merged = [item for item in merged_lists.items() if len(item[1]) > 1]
    delta_hashes = sum(len(values) + 1 for _, values in merged) + len(inputs)
    if delta_hashes >= len(entries):
        return _fingerprint_entries(entries)
    acc = stable_hash(len(entries), salt="pfp")
    for partition in inputs:
        acc ^= partition.uid ^ stable_hash(len(partition.entries), salt="pfp")
    for key, values in merged:
        hash_with_key = entry_hasher(key, salt="pent")
        for value in values:
            acc ^= hash_with_key(value)
        if key in entries:
            acc ^= hash_with_key(entries[key])
    return acc


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


def combine_partitions(  # analysis: charge-in-caller-span (tree task span)
    partitions: Sequence[Partition],
    combiner: Combiner,
    telemetry: Telemetry | None = None,
    phase: Phase = Phase.CONTRACTION,
    cost_factor: float = 1.0,
    invocation_overhead: float = 0.0,
    on_poison: PoisonHandler | None = None,
) -> Partition:
    """Combine several partitions into one, charging per-key merge cost.

    This is the single Combiner-invocation primitive every contraction tree
    is built from.  Associativity of the combiner makes any combination
    order produce the same result.

    ``invocation_overhead`` is a fixed charge per *real* merge (two or more
    non-empty inputs), modelling the task-launch and data-movement cost a
    combiner invocation has on a real cluster; pass-throughs are free.
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

    entries: dict[Any, Any] = {}
    cost = 0.0
    for key, values in merged_lists.items():
        if len(values) == 1:
            entries[key] = values[0]
            cost += combiner.value_size(values[0]) * 0.1  # copy-through cost
        else:
            try:
                entries[key] = combiner.merge(key, values)
            except Exception as exc:
                if on_poison is None:
                    raise
                recovered, value = on_poison(key, values, exc)
                if not recovered:
                    continue
                entries[key] = value
            cost += combiner.merge_cost(key, values)
    if telemetry is not None:
        telemetry.charge(phase, cost * cost_factor + invocation_overhead)
    return Partition(entries, uid=combined_uid(non_empty, merged_lists, entries))
