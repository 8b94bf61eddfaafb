"""Run planning: the front end over plan assembly.

The :class:`RunPlanner` drives one window update's planning passes.  It
owns no cross-run state — that lives on the :class:`~repro.slider.system.
Slider` facade — and it never computes a value itself: every step it (or
a tree it drives) assembles is opened on, resolved by and logged by the
engine's shared :class:`~repro.core.execute.PlanExecutor`.

The planner is also the front end of the one thing left of the
plan-compile layer, the set of structural states the engine has advanced
from (:class:`PlanCache`, held as ``engine.plan_cache``):
:meth:`RunPlanner.begin_run` keys the upcoming
advance by (window motion, per-tree structure key) and opens the run
``recurring`` when the key was seen before; :meth:`RunPlanner.finish_run`
remembers the key of a run that completed.  Every run executes the same
way — the verdict only tells the process backend whether it may dispatch
(its first rung).  A chaos run is keyed like a calm one (its schedule
changes only simulated time); the data-dependent variants (randomized,
strawman) are never keyed — their ``plan_structure_key`` is ``None``.

* **Map plan** — one ``map`` step per split in the update; the split uid
  is the step's plan-level cache edge.  Execution resolves it against the
  engine's map memo: a hit is a ``memo_read`` node (the split still in
  the window never re-runs its Map function), a miss runs the Map task
  and records ``map`` + ``shuffle`` nodes.
* **Tree plan** — each reducer's contraction tree plans the combines its
  delta needs, inside that reducer's attribution scope.
* **Reduce plan** — one ``reduce`` step per reducer; execution applies
  per-key change propagation (Algorithm 1), reducing changed keys and
  serving unchanged ones from the reduce memo.  A reducer whose root is
  empty executes no node, and its step is logged plan-only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.common.errors import CombinerContractError
from repro.core.base import ContractionTree
from repro.core.coalescing import CoalescingTree
from repro.core.folding import FoldingTree
from repro.core.memo import MEMO_READ_COST, MemoTable
from repro.core.partition import Partition
from repro.core.randomized import RandomizedFoldingTree
from repro.core.rotating import RotatingTree
from repro.core.strawman import StrawmanTree
from repro.mapreduce.shuffle import run_map_task
from repro.mapreduce.types import Split
from repro.metrics import Phase
from repro.telemetry import SpanKind

if TYPE_CHECKING:  # pragma: no cover - type-only facade reference
    from repro.slider.system import Slider


#: Structural states an engine remembers (LRU).  A folding tree's
#: ``(height, start, end)`` recurs with period ≈ the next power of two
#: above the window under a constant slide; a period longer than this
#: never recurs in the set, and such a stream never dispatches.
PLAN_CACHE_CAPACITY = 256
_ABSENT = object()


@dataclass
class PlanCacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Lookups skipped because a tree declared its plans data-dependent.
    uncacheable: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of keyed lookups that hit; 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "uncacheable": self.uncacheable,
            "hit_rate": self.hit_rate,
        }


class PlanCache:
    """The structural states one engine has advanced from, LRU-bounded.

    It holds keys and nothing else — no plan is stored or served; it
    keeps the name of the cache it is what is left of.  A key is every
    thing a run's plan shape is a function of besides the engine itself:
    the motion ``(len(added), removed)`` and each tree's
    ``plan_structure_key()``.
    """

    def __init__(self, capacity: int = PLAN_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._seen: OrderedDict[tuple, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._seen)

    def lookup(self, key: tuple) -> bool:
        if key not in self._seen:
            self.stats.misses += 1
            return False
        self._seen.move_to_end(key)
        self.stats.hits += 1
        return True

    def store(self, key: tuple) -> None:
        self._seen[key] = None
        self._seen.move_to_end(key)
        self.stats.stores += 1
        while len(self._seen) > self.capacity:
            self._seen.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._seen.clear()


class RunPlanner:
    """Assembles and drives one run's plan against the engine's executor."""

    def __init__(self, engine: "Slider") -> None:
        self.engine = engine
        #: Key the in-flight run will be remembered under when it
        #: completes (None when the run is not keyed, or recurring).
        self._pending_key: tuple | None = None

    # -- the seen-states front end ------------------------------------------

    def begin_run(
        self, label: str, added: Sequence[Split], removed: int
    ) -> None:
        """Open an advance on the executor, ``recurring`` when the engine
        has been in this structural state before.  Must be called *before*
        any tree state mutates — the key captures the pre-advance
        structure."""
        engine = self.engine
        key = self._plan_key(added, removed)
        recurring = False
        if key is not None:
            recurring = engine.plan_cache.lookup(key)
            engine.telemetry.count(
                "plan_cache.hits" if recurring else "plan_cache.misses"
            )
        self._pending_key = None if recurring else key
        engine.executor.begin_run(label, recurring=recurring)

    def finish_run(self) -> None:
        """Remember the structural state the completed run started from."""
        key, self._pending_key = self._pending_key, None
        if key is not None:
            self.engine.plan_cache.store(key)

    def _plan_key(self, added: Sequence[Split], removed: int) -> tuple | None:
        engine = self.engine
        structure = []
        for tree in engine.trees:
            tree_key = tree.plan_structure_key()
            if tree_key is None:
                engine.telemetry.count("plan_cache.uncacheable")
                engine.plan_cache.stats.uncacheable += 1
                return None
            structure.append(tree_key)
        return ("advance", len(added), removed, tuple(structure))

    # -- tree assembly -------------------------------------------------------

    def make_trees(self) -> list[ContractionTree]:
        return [self.make_tree() for _ in range(self.engine.job.num_reducers)]

    def make_tree(self) -> ContractionTree:
        engine = self.engine
        memo = MemoTable(backing=engine.cache, telemetry=engine.telemetry)
        common = dict(
            memo=memo,
            combine_cost_factor=engine.job.costs.combine_cost_factor,
            executor=engine.executor,
        )
        variant = engine.config.tree_variant()
        try:
            return self._construct_tree(variant, common)
        except CombinerContractError as exc:
            raise CombinerContractError(
                f"job {engine.job.name!r}: {exc} "
                f"(tree variant {variant!r})"
            ) from exc

    def _construct_tree(self, variant: str, common: dict) -> ContractionTree:
        engine = self.engine
        if variant == "folding":
            return FoldingTree(engine.job.combiner, **common)
        if variant == "randomized":
            return RandomizedFoldingTree(
                engine.job.combiner, seed=engine.config.seed, **common
            )
        if variant == "rotating":
            return RotatingTree(
                engine.job.combiner,
                bucket_size=engine.config.bucket_size,
                split_mode=engine.config.split_mode,
                **common,
            )
        if variant == "coalescing":
            return CoalescingTree(
                engine.job.combiner, split_mode=engine.config.split_mode, **common
            )
        # "strawman": SliderConfig admits no other variant.
        return StrawmanTree(engine.job.combiner, **common)

    # -- map plan ------------------------------------------------------------

    def run_maps(  # analysis: charge-in-caller-span (map phase span)
        self, splits: Sequence[Split]
    ) -> int:
        """Plan and resolve the Map step of every split.

        Returns the number of steps served by the map memo; per-split
        resolved costs accumulate on the executor
        (:meth:`~repro.core.execute.PlanExecutor.record_map_cost`).
        """
        engine = self.engine
        executor = engine.executor
        telemetry = engine.telemetry
        if engine.blocks is not None:
            engine.blocks.store_all(splits)
        reused = sum(1 for s in splits if s.uid in engine.map_memo)
        for split in splits:
            uid = split.uid
            label = f"map:{uid:#x}"
            executor.open_step("map", label, Phase.MAP, memo_uid=uid)
            if uid in engine.map_memo:
                read_cost = MEMO_READ_COST * max(1, len(split))
                telemetry.charge(Phase.MEMO_READ, read_cost)
                outputs = engine.map_memo[uid]
                executor.log_node(
                    "memo_read", Phase.MEMO_READ, f"map-memo:{uid:#x}",
                    read_cost, float(sum(len(p) for p in outputs)), True, uid,
                )
                executor.record_map_cost(uid, 0.0)
                continue
            before = telemetry.total()
            map_before = telemetry.by_phase.get(Phase.MAP, 0.0)
            shuffle_before = telemetry.by_phase.get(Phase.SHUFFLE, 0.0)
            outputs = engine.map_memo[uid] = run_map_task(
                engine.job,
                split.records,
                engine.partitioner,
                telemetry,
                label=label,
            )
            keys = sum(len(p) for p in outputs)
            engine.map_keys += keys
            executor.record_map_cost(uid, telemetry.total() - before)
            # A map node, then the shuffle that routed its emissions.
            shuffle_cost = telemetry.by_phase.get(Phase.SHUFFLE, 0.0) - shuffle_before
            executor.log_node(
                "map", Phase.MAP, label,
                telemetry.by_phase.get(Phase.MAP, 0.0) - map_before, float(keys),
                False, uid,
            )
            if shuffle_cost > 0:
                executor.log_node(
                    "shuffle", Phase.SHUFFLE, f"shuffle:{uid:#x}", shuffle_cost,
                    float(keys), False, uid,
                )
        return reused

    def reducer_leaves(
        self, splits: Sequence[Split]
    ) -> list[list[Partition]]:
        engine = self.engine
        per_reducer: list[list[Partition]] = [
            [] for _ in range(engine.job.num_reducers)
        ]
        for split in splits:
            outputs = engine.map_memo[split.uid]
            for reducer_index, partition in enumerate(outputs):
                per_reducer[reducer_index].append(partition)
        return per_reducer

    # -- tree plan -----------------------------------------------------------

    def advance_trees(
        self, step: Callable[[int, ContractionTree], Partition]
    ) -> list[Partition]:
        """Run ``step`` on every tree inside its reducer attribution scope
        (the executor measures per-reducer work for the wave time model's
        reduce-task imbalance)."""
        engine = self.engine
        roots = []
        for reducer_index, tree in enumerate(engine.trees):
            with engine.telemetry.span(
                f"reducer:{reducer_index}", SpanKind.TASK, reducer=reducer_index
            ):
                with engine.executor.reducer_scope(reducer_index):
                    roots.append(step(reducer_index, tree))
        return roots

    # -- reduce plan ---------------------------------------------------------

    def reduce_candidates(
        self, added: Sequence[Split], departed: Sequence[Split]
    ) -> list[dict] | None:
        """Per reducer, the keys a slide can have moved: those its entering
        leaves carry, in leaf order, then its leaving leaves'.  An ``exact``
        combiner's root value is a function of the multiset of leaf values
        for its key, however a tree brackets them, so every other key still
        ``==`` its memoized value.  ``None`` (scan the root; the reason is
        counted) when the combiner does not say so or a leaving row is not
        held.
        """
        engine = self.engine
        rows = [engine.map_memo.get(split.uid) for split in (*added, *departed)]
        if not engine.job.combiner.exact:
            engine.telemetry.count("reduce.scan.inexact")
        elif None in rows:
            engine.telemetry.count("reduce.scan.departed_row")
        else:
            candidates: list[dict] = [{} for _ in engine.trees]
            for row in rows:
                for keys, leaf in zip(candidates, row):
                    keys.update(leaf.entries)  # stored hashes; values unused
            return candidates
        return None

    def reduce_all(  # analysis: charge-in-caller-span (reduce phase span)
        self, roots: list[Partition], candidates: list[dict] | None = None
    ) -> tuple[dict[Any, Any], frozenset, frozenset]:
        """Plan one ``reduce`` step per reducer and resolve it per key.

        Change propagation is per-key (Algorithm 1): a key whose combined
        value did not change between runs keeps its memoized Reduce output
        at only a memo-read cost; changed and new keys pay the full Reduce
        cost.  Visits ``candidates[reducer]`` (:meth:`reduce_candidates`) or,
        given none, every root key and then every memoized key not in the
        root, and patches the reduce memo and ``engine.reduce_outputs`` in
        place.  Returns ``(a copy of those, changed_keys, removed_keys)``.
        """
        engine = self.engine
        executor = engine.executor
        log_node = executor.log_node
        telemetry = engine.telemetry
        outputs = engine.reduce_outputs
        reduce_fn = engine.job.reduce_fn
        reduce_cost = engine.job.costs.reduce_cost_per_key
        changed_keys: set[Any] = set()
        removed_keys: set[Any] = set()
        for reducer_index, root in enumerate(roots):
            with executor.reducer_scope(reducer_index):
                executor.open_step(
                    "reduce", f"reduce:{reducer_index}", Phase.REDUCE
                )
                memo = engine.reduce_memo[reducer_index]
                entries = root.entries
                if candidates is None:
                    keys = [*entries, *(key for key in memo if key not in entries)]
                else:
                    keys = candidates[reducer_index]
                changed = 0
                for key in keys:
                    cached = memo.get(key)
                    value = entries.get(key, _ABSENT)
                    if value is _ABSENT:
                        if cached is not None:
                            del memo[key]
                            outputs.pop(key, None)
                            removed_keys.add(key)
                        continue
                    if cached is not None and cached[0] == value:
                        continue
                    output = outputs[key] = reduce_fn(key, value)
                    memo[key] = (value, output)
                    changed += 1
                    changed_keys.add(key)
                    # One a changed key, so the hottest record: the label
                    # slot holds the key itself.
                    log_node(
                        "reduce", Phase.REDUCE, key, reduce_cost, 1.0, False,
                        None, None, 1,
                    )
                unchanged = len(entries) - changed
                if changed:
                    telemetry.charge(Phase.REDUCE, changed * reduce_cost)
                if unchanged:
                    telemetry.charge(Phase.MEMO_READ, unchanged * MEMO_READ_COST)
                    log_node(
                        "memo_read", Phase.MEMO_READ,
                        f"reduce-memo:{reducer_index}:{unchanged}keys",
                        unchanged * MEMO_READ_COST, float(unchanged), True,
                        None, None, 1,
                    )
                executor.close_step()
        return dict(outputs), frozenset(changed_keys), frozenset(removed_keys)
