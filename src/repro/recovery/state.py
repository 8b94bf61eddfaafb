"""Capture/apply of every piece of cross-run Slider state.

``capture_engine_state`` flattens an idle engine into one plain-data
structure; ``apply_engine_state`` pushes it back onto a freshly
constructed engine.  The whole structure is pickled as a *single*
checkpoint segment because the state graph is alias-sensitive: a
randomized tree's memo entries are the same ``Partition`` objects as the
distributed cache's memory/disk copies, and the map memo's partitions
are the same objects as the trees' leaves.  Pickle preserves identity
within one blob, so restoring the single segment reconstructs the exact
sharing structure.

Telemetry is captured separately (it is plain floats, not aliased): the
root span's per-phase work dict is recorded as an *ordered* list and
replayed one lump charge per phase in original insertion order.  Dict
insertion order drives downstream float summation
(``Telemetry.total()``), so both the values and the order must survive —
a lump charge of the exact prior total reproduces both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.common.errors import CheckpointError
from repro.core.base import ContractionTree
from repro.core.coalescing import CoalescingTree
from repro.core.folding import FoldingTree
from repro.core.randomized import RandomizedFoldingTree
from repro.core.rotating import RotatingTree
from repro.core.strawman import StrawmanTree
from repro.mapreduce.types import SplitWindow
from repro.metrics import Phase
from repro.telemetry import SpanKind, Telemetry

if TYPE_CHECKING:  # pragma: no cover - type-only facade reference
    from repro.slider.system import Slider

#: Per-variant instance fields that constitute a tree's restorable state.
_TREE_FIELDS: dict[type, tuple[str, ...]] = {
    FoldingTree: ("_slots", "_start", "_end", "_height", "_cache"),
    RotatingTree: (
        "_buckets",
        "_bucket_leaves",
        "_oldest",
        "_height",
        "_cache",
        "_root",
        "_intermediate",
        "_intermediate_slot",
        "_pending",
    ),
    CoalescingTree: ("_leaves", "_root", "_reduce_input", "_pending_delta"),
    RandomizedFoldingTree: ("_leaves", "_root"),
    StrawmanTree: ("_cache", "_leaves", "_root"),
}


def _tree_fields(tree: ContractionTree) -> tuple[str, ...]:
    for klass, fields in _TREE_FIELDS.items():
        if isinstance(tree, klass):
            return fields
    raise CheckpointError(
        f"cannot checkpoint unknown tree variant {type(tree).__name__}"
    )


def capture_tree(tree: ContractionTree) -> dict[str, Any]:
    return {
        "class": type(tree).__name__,
        "ran_initial": tree._ran_initial,
        "stats": tree.stats,
        "fields": {name: getattr(tree, name) for name in _tree_fields(tree)},
        "memo": {
            # A plain dict, whatever store the table sits on.
            "entries": dict(tree.memo.entries.items()),
            "stats": tree.memo.stats,
            "degraded": tree.memo.degraded,
            "tainted": set(tree.memo._tainted),
        },
    }


def apply_tree(tree: ContractionTree, state: dict[str, Any]) -> None:
    if type(tree).__name__ != state["class"]:
        raise CheckpointError(
            f"checkpoint holds a {state['class']} tree but the engine "
            f"built a {type(tree).__name__} — the SliderConfig in the "
            "checkpoint must produce the same variant"
        )
    tree._ran_initial = state["ran_initial"]
    tree.stats = state["stats"]
    for name, value in state["fields"].items():
        setattr(tree, name, value)
    # Reattach through the table's own store.
    tree.memo.replace_entries(state["memo"]["entries"])
    tree.memo.stats = state["memo"]["stats"]
    tree.memo.degraded = state["memo"]["degraded"]
    tree.memo._tainted = set(state["memo"]["tainted"])


def capture_engine_state(engine: "Slider") -> dict[str, Any]:
    """Flatten all cross-run state of an idle engine into plain data."""
    state: dict[str, Any] = {
        "window": list(engine.window.splits),
        "map_memo": engine.map_memo,
        "reduce_memo": engine.reduce_memo,
        "trees": [capture_tree(tree) for tree in engine.trees],
        "chaos_downed": list(engine.chaos_downed),
        "last_recovery": dict(engine.last_recovery),
        "run_index": engine.run_index,
        "ran_initial": engine._ran_initial,
        "last_changed_keys": engine._last_changed_keys,
        "last_removed_keys": engine._last_removed_keys,
        "machines": None,
        "cache": None,
        "gc": None,
        "blocks": None,
    }
    if engine.cluster is not None:
        state["machines"] = [
            (m.machine_id, m.alive, m.straggle)
            for m in engine.cluster.machines
        ]
    if engine.cache is not None:
        state["cache"] = {
            "memory": engine.cache._memory,
            "disk": engine.cache._disk,
            "index": engine.cache._index,
            "stats": engine.cache.stats,
        }
    if engine.gc is not None:
        state["gc"] = {
            "budget": engine.gc.budget,
            "collected": engine.gc.collected,
            "insertion_order": list(engine.gc._insertion_order),
        }
    if engine.blocks is not None:
        state["blocks"] = {
            "blocks": engine.blocks._blocks,
            "repair_traffic": engine.blocks.repair_traffic,
            "locality_hits": engine.blocks.locality_hits,
            "locality_misses": engine.blocks.locality_misses,
        }
    return state


def apply_engine_state(engine: "Slider", state: dict[str, Any]) -> None:
    """Push captured state onto a freshly constructed engine."""
    engine.window = SplitWindow(list(state["window"]))
    engine.map_memo = state["map_memo"]
    # Rows a checkpoint taken before a collection still held are garbage
    # the next collection must find.
    engine.window.departed.update(
        engine.map_memo.keys() - engine.window.counts.keys()
    )
    engine.reduce_memo = state["reduce_memo"]
    engine.reduce_outputs = {  # derived, not checkpointed
        key: out for memo in engine.reduce_memo for key, (_, out) in memo.items()
    }
    if len(state["trees"]) != len(engine.trees):
        raise CheckpointError(
            f"checkpoint holds {len(state['trees'])} reducer trees but the "
            f"job declares {len(engine.trees)} reducers"
        )
    for tree, tree_state in zip(engine.trees, state["trees"]):
        apply_tree(tree, tree_state)
    # The space counts are not checkpointed (and a checkpoint written
    # before they existed has none): derive them, once, from what was
    # just set wholesale.
    engine.lifecycle.recount()
    engine.chaos_downed = list(state["chaos_downed"])
    engine.last_recovery = dict(state["last_recovery"])
    engine.run_index = state["run_index"]
    engine._ran_initial = state["ran_initial"]
    engine._last_changed_keys = state["last_changed_keys"]
    engine._last_removed_keys = state["last_removed_keys"]
    if state["machines"] is not None and engine.cluster is not None:
        for machine_id, alive, straggle in state["machines"]:
            machine = engine.cluster.machine(machine_id)
            machine.alive = alive
            machine.straggle = straggle
    if state["cache"] is not None and engine.cache is not None:
        engine.cache._memory = state["cache"]["memory"]
        engine.cache._disk = state["cache"]["disk"]
        engine.cache._index = state["cache"]["index"]
        engine.cache.stats = state["cache"]["stats"]
    if state["gc"] is not None and engine.gc is not None:
        engine.gc.budget = state["gc"]["budget"]
        engine.gc.collected = state["gc"]["collected"]
        engine.gc._insertion_order = list(state["gc"]["insertion_order"])
    if state["blocks"] is not None and engine.blocks is not None:
        engine.blocks._blocks = state["blocks"]["blocks"]
        engine.blocks.repair_traffic = state["blocks"]["repair_traffic"]
        engine.blocks.locality_hits = state["blocks"]["locality_hits"]
        engine.blocks.locality_misses = state["blocks"]["locality_misses"]


def capture_telemetry(telemetry: Telemetry) -> dict[str, Any]:
    """Record the accounting totals as ordered plain data."""
    return {
        "label": telemetry.root.name,
        "phases": [
            (phase.value, amount)
            for phase, amount in telemetry.root.work.items()
        ],
        "counters": list(telemetry.counters.items()),
    }


def apply_telemetry(telemetry: Telemetry, state: dict[str, Any]) -> None:
    """Replay captured totals onto a fresh telemetry backbone.

    One lump charge per phase, in the original insertion order, rebuilds
    ``by_phase`` with bit-identical values *and* dict order — both are
    load-bearing for downstream float summation.  The replay runs inside
    a dedicated restore span so the charges are attributed.
    """
    telemetry.root.name = state["label"]
    with telemetry.span("checkpoint-restore", SpanKind.PHASE):
        for phase_value, amount in state["phases"]:
            telemetry.charge(Phase(phase_value), amount)
    for name, value in state["counters"]:
        telemetry.counters[name] = value
