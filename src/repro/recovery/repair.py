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

from typing import TYPE_CHECKING, Any

from repro.common.errors import CorruptionError
from repro.core.folding import FoldingTree
from repro.core.partition import Partition
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
    elif kind == "memo":
        tree.memo.entries[key] = _corrupt_copy(tree.memo.entries[key], salt)
        tree.memo.taint({key})
    else:  # pragma: no cover - enumerated above
        raise ValueError(f"unknown corruption surface {kind!r}")


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

    work_before = engine.meter.total()
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
        "corruption_repair_work": engine.meter.total() - work_before,
    }


def _repair(engine: "Slider", victims: list[Victim]) -> int:
    """Recompute/drop every flipped slot; bit-identical by construction."""
    repaired = 0
    # Buckets first: they are the level-0 inputs of the cache sweep.
    for kind, index, slot in victims:
        if kind != "bucket":
            continue
        tree = engine.trees[index]
        if tree._buckets[slot].verify_fingerprint():
            continue
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
        if tree._cache[(level, node_index)].verify_fingerprint():
            continue
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
        tree = engine.trees[index]
        if not tree._cache[position][2].verify_fingerprint():
            tree._drop_node(position)
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
    silently in that case.  An object met again (a map-memo leaf is a
    tree's leaf, a pass-through node the child it is) is verified where
    first met, and so is an entry: the walk goes reducer by reducer, its
    map-memo row then its tree, with one identity memo a reducer (a key
    routes to one reducer), so a (key, value) pair of objects that several
    partitions hold is hashed once.  Every object is alive and unmodified
    for the whole walk, which is what makes an id name one content.
    Returns the number of distinct partitions checked.
    """
    verified: set[int] = set()
    memo: dict[tuple[int, int], int] = {}

    def check(partition: Partition, where: str) -> None:
        if id(partition) in verified:
            return
        verified.add(id(partition))
        if not partition.verify_fingerprint(memo):
            raise CorruptionError(
                f"restored state failed fingerprint verification at "
                f"{where}: entries diverged from recorded uid "
                f"{partition.uid:#x} — the checkpoint holds corrupt state"
            )

    map_memo_uids = sorted(engine.map_memo)
    for index, tree in enumerate(engine.trees):
        memo.clear()
        for uid in map_memo_uids:
            check(engine.map_memo[uid][index], f"map_memo[{uid:#x}][{index}]")
        for uid in sorted(tree.memo.entries):
            check(tree.memo.entries[uid], f"tree[{index}].memo[{uid:#x}]")
        cache = getattr(tree, "_cache", None)
        if isinstance(cache, dict):
            for position in sorted(cache):
                value = cache[position]
                if isinstance(value, tuple):  # strawman (l, r, value) triple
                    value = value[2]
                check(value, f"tree[{index}].cache[{position}]")
        for name in ("_buckets", "_leaves", "_slots"):
            values = getattr(tree, name, None)
            if isinstance(values, list):
                for slot, value in enumerate(values):
                    if isinstance(value, Partition):
                        check(value, f"tree[{index}].{name}[{slot}]")
        for name in ("_root", "_reduce_input", "_intermediate", "_pending_delta"):
            value = getattr(tree, name, None)
            if isinstance(value, Partition):
                check(value, f"tree[{index}].{name}")
    return len(verified)
