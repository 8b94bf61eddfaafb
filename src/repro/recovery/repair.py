"""Corruption injection and the eager repair sweep.

The chaos layer's :class:`~repro.cluster.chaos.CorruptionEvent` flips
memoized entries; this module enumerates the flippable state, performs
the flips, and repairs them so that *wrong answers are impossible* —
corruption only costs work, charged inside a dedicated repair span.

Injection replaces the victim storage slot with a corrupted **copy**
(same recorded uid, mutated entries) rather than mutating the stored
object: memoized partitions are aliased across layers (a randomized
tree's memo entries are the distributed cache's memory copies; position
caches can hold pass-through references to map outputs), and corrupting
the shared object would poison state the repair does not own.  The copy
models bit rot of one stored replica — exactly what fingerprints detect.
Position-cache slots are written through the tree's ``_set_node`` /
``_drop_node``, so its retained-space count follows every flip and
repair (a corrupt copy holds one key more than its victim).

Repair strategy per fault surface:

* folding/rotating position caches — recompute the node from the *same
  children in the same order* (bottom-up by level), so the repaired
  floats are bit-identical to the originals;
* rotating buckets — recombine the retained leaf chunk, then fix any
  cache path above it (same bottom-up sweep);
* strawman positions — drop the entry; the next run's positional walk
  recomputes it (the strawman end of the degradation ladder);
* randomized-tree memo entries — taint the uid; the next lookup
  verifies the fingerprint lazily, drops the bad local copy, and falls
  back to the (intact) backing replica or recomputes the group.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.common.errors import CorruptionError
from repro.core.folding import FoldingTree
from repro.core.partition import Partition, first_unsound, map_partitions
from repro.core.randomized import RandomizedFoldingTree
from repro.core.rotating import RotatingTree
from repro.core.strawman import StrawmanTree
from repro.telemetry import SpanKind

if TYPE_CHECKING:  # pragma: no cover - type-only facade references
    from repro.cluster.chaos import ChaosSchedule
    from repro.core.base import ContractionTree
    from repro.slider.system import Slider

#: Sentinel key spliced into a corrupted copy's entries.
_ROT_KEY = "\x00bitrot"

#: A corruption victim: (surface, tree index, position/uid).
Victim = tuple[str, int, Any]


def corruption_candidates(engine: "Slider") -> list[Victim]:
    """Deterministically ordered list of flippable storage slots.

    Coalescing roots and standalone fast-roots are excluded: their
    incremental history cannot be recomputed bit-identically from
    retained state, so they are not legal fault surfaces for an
    outputs-preserving repair.  Empty partitions are excluded because
    they share one global singleton.
    """
    candidates: list[Victim] = []
    for index, tree in enumerate(engine.trees):
        if isinstance(tree, (FoldingTree, RotatingTree)):
            for position in sorted(tree._cache):
                if tree._cache[position]:
                    candidates.append(("cache", index, position))
        if isinstance(tree, RotatingTree):
            for slot, bucket in enumerate(tree._buckets):
                if bucket:
                    candidates.append(("bucket", index, slot))
        if isinstance(tree, StrawmanTree):
            for position in sorted(tree._cache):
                if tree._cache[position][2]:
                    candidates.append(("straw", index, position))
        if isinstance(tree, RandomizedFoldingTree):
            for uid in sorted(tree.memo.entries):
                if tree.memo.entries[uid]:
                    candidates.append(("memo", index, uid))
    return candidates


def _corrupt_copy(value: Partition, salt: int) -> Partition:
    """A partition whose entries diverged from its recorded fingerprint."""
    entries = dict(value.entries)
    entries[_ROT_KEY] = salt
    return Partition(entries, uid=value.uid)


def _inject(tree: "ContractionTree", victim: Victim, salt: int) -> None:
    kind, _, key = victim
    if kind == "cache":
        tree._set_node(key, _corrupt_copy(tree._cache[key], salt))
    elif kind == "bucket":
        tree._buckets[key] = _corrupt_copy(tree._buckets[key], salt)
    elif kind == "straw":
        left_uid, right_uid, value = tree._cache[key]
        tree._set_node(key, (left_uid, right_uid, _corrupt_copy(value, salt)))
    else:  # "memo", the one surface left
        tree.memo.entries[key] = _corrupt_copy(tree.memo.entries[key], salt)
        tree.memo.taint({key})


def inject_and_repair(
    engine: "Slider", schedule: "ChaosSchedule"
) -> dict[str, float]:
    """Flip the schedule's victims, then repair eagerly.

    Runs inside the window-update span (before the run's plan opens), so
    every recompute lands in the run's phase delta: corruption costs
    work, never correctness.  Returns the repair statistics merged into
    ``engine.last_recovery`` by the lifecycle layer.
    """
    candidates = corruption_candidates(engine)
    victims: list[Victim] = []
    seen: set[Victim] = set()
    for event in schedule.corruptions:
        for victim in event.choose(candidates, schedule.seed):
            if victim not in seen:
                seen.add(victim)
                victims.append(victim)
    if not victims:
        return {}

    work_before = engine.telemetry.total()
    with engine.telemetry.span(
        "repair", SpanKind.PHASE, reason="corruption", victims=len(victims)
    ):
        for victim in victims:
            _inject(engine.trees[victim[1]], victim, schedule.seed)
            engine.telemetry.count("recovery.corruptions_injected")
            engine.telemetry.instant(
                "recovery.corruption",
                surface=victim[0],
                tree=victim[1],
            )
        repaired = _repair(engine, victims)
    return {
        "corruptions_injected": float(len(victims)),
        "corruptions_repaired": float(repaired),
        "corruption_repair_work": engine.telemetry.total() - work_before,
    }


def _repair(engine: "Slider", victims: list[Victim]) -> int:
    """Recompute/drop every flipped slot; bit-identical by construction.
    Every victim is distinct and was flipped just before, so each fails
    its fingerprint here."""
    repaired = 0
    # Buckets first: they are the level-0 inputs of the cache sweep.
    for kind, index, slot in victims:
        if kind != "bucket":
            continue
        tree = engine.trees[index]
        tree._buckets[slot] = tree._combine(
            tree._bucket_leaves[slot], node=f"repair:bucket.{slot}"
        )
        engine.telemetry.count("recovery.corruptions_repaired")
        repaired += 1
    # Position caches bottom-up: children are already clean (or repaired).
    cache_victims = sorted(
        (index, key) for kind, index, key in victims if kind == "cache"
    )
    for index, (level, node_index) in cache_victims:
        tree = engine.trees[index]
        tree._set_node(
            (level, node_index),
            tree._combine(
                [
                    tree._node_value(level - 1, node_index * 2),
                    tree._node_value(level - 1, node_index * 2 + 1),
                ],
                node=f"repair:L{level}.{node_index}",
            ),
        )
        engine.telemetry.count("recovery.corruptions_repaired")
        repaired += 1
    # Strawman entries: drop; the next positional walk recomputes them.
    for kind, index, position in victims:
        if kind != "straw":
            continue
        engine.trees[index]._drop_node(position)
        engine.telemetry.count("recovery.corruptions_repaired")
        repaired += 1
    # Memo entries stay tainted: the next lookup verifies lazily, drops
    # the bad copy, and heals from the backing replica or a recompute.
    return repaired


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
    :func:`~repro.core.partition.first_unsound` pass, with one entry memo
    (a key routes to one reducer): each distinct str-keyed or flat
    tuple-keyed int entry is hashed once, by value, and any other
    tuple-keyed pair of objects once, by identity.  Slots are named only
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
