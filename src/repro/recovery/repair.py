"""The restore sweep: every restored partition is proved against its uid.

Checkpoint segments are digest-verified byte for byte as they are read
(:mod:`repro.recovery.segments`); what a digest cannot see is a graph
that was already unsound when it was written -- an entry changed under
its recorded uid in memory before the checkpoint captured it.
:func:`verify_restored` walks everything a restored engine holds and
fingerprints each distinct partition once, so such state is refused
with a :class:`~repro.common.errors.CorruptionError` naming the slot,
before any run reads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.common.errors import CorruptionError
from repro.core.partition import Partition, first_unsound, map_partitions

if TYPE_CHECKING:  # pragma: no cover - type-only facade reference
    from repro.slider.system import Slider


def verify_restored(engine: "Slider") -> int:
    """Eager fingerprint sweep over all restored partitions.

    Checkpoint segments are digest-verified byte-for-byte before this
    runs, so a failure here means in-memory corruption slipped into the
    checkpointed object graph itself; refusing loudly beats recomputing
    silently in that case.  The walk goes reducer by reducer: its
    map-memo row, its memo entries, then its tree's whole
    :meth:`~repro.core.base.ContractionTree.state`, field by field, a dict
    in sorted key order, nested values by the process seam's own
    :func:`~repro.core.partition.map_partitions` (a field that holds a
    partition anywhere is verified, however nested).  An object met again
    (a map-memo leaf is a tree's leaf, a pass-through node the child it
    is) is verified where first met.  A reducer's partitions not met
    before are gathered into one list and fingerprinted by one
    :func:`~repro.core.partition.first_unsound` pass (a key routes to one
    reducer, so the reducer is the scope of every by-value rule): each
    distinct str-keyed or flat tuple-keyed int entry is hashed once, by
    value, and any other tuple-keyed pair of objects once, by identity.
    A reducer holding only flat tuple keys and exact int values (matrix)
    is folded in one C-level pass over all its entries, about 0.6 us of
    Python an entry less than the kernel's loop; any other reducer keeps
    the loop, whose str-keyed memo hit costs about 0.2 us and where a
    per-partition C-level path was 1.35x slower (hct's partitions hold
    about six entries).  Slots are named only
    when a partition fails: the reducer is walked again to find where the
    failing object was first met.  Returns the number of distinct
    partitions checked.
    """
    verified: set[int] = set()
    map_memo = engine.map_memo
    map_memo_uids = sorted(map_memo)
    for index, tree in enumerate(engine.trees):
        met = [map_memo[uid][index] for uid in map_memo_uids]
        memo = tree.memo.entries
        met += [memo[uid] for uid in sorted(memo)]
        for value in tree.state().values():
            for item in _slots(value)[1]:
                if type(item) is Partition:
                    met.append(item)
                elif item is not None:
                    map_partitions(item, met.append)
        # By id, in the order first met (a dict keeps a key's first place).
        unmet = dict(zip(map(id, met), met))
        for seen in verified.intersection(unmet):
            del unmet[seen]
        verified.update(unmet)
        corrupt = first_unsound(list(unmet.values()))
        if corrupt is not None:
            where = next(
                name
                for name, item in _named_slots(engine, index)
                if _holds(item, corrupt)
            )
            raise CorruptionError(
                f"restored state failed fingerprint verification at {where}: "
                f"entries diverged from recorded uid {corrupt.uid:#x} — the "
                f"checkpoint holds corrupt state"
            )
    return len(verified)


def _slots(value: Any) -> tuple[Sequence[Any], Sequence[Any]]:
    """A tree state field's slots and what each holds, in sweep order: a
    dict's by sorted key, a list's by index, anything else whole, in the
    one slot ``None``."""
    if type(value) is dict:
        slots = sorted(value)
        return slots, list(map(value.__getitem__, slots))
    if type(value) is list:
        return range(len(value)), value
    return (None,), (value,)


def _holds(value: Any, partition: Partition) -> bool:
    """Whether ``value`` holds ``partition`` itself, however nested."""
    found: list[Partition] = []
    map_partitions(value, found.append)
    return any(item is partition for item in found)


def _named_slots(engine: "Slider", index: int) -> Iterator[tuple[str, Any]]:
    """Reducer ``index``'s walk, in the sweep's order, with each slot's
    name: only a failure pays for formatting them."""
    for uid in sorted(engine.map_memo):
        yield f"map_memo[{uid:#x}][{index}]", engine.map_memo[uid][index]
    tree = engine.trees[index]
    for uid in sorted(tree.memo.entries):
        yield f"tree[{index}].memo[{uid:#x}]", tree.memo.entries[uid]
    for name, value in tree.state().items():
        # The position cache is reported as ``cache``, as it always was.
        field = "cache" if name == "_cache" else name
        for slot, item in zip(*_slots(value)):
            if slot is None:
                yield f"tree[{index}].{field}", item
            else:
                yield f"tree[{index}].{field}[{slot}]", item
