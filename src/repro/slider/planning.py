"""Run planning: the cache-aware front end over plan assembly.

The :class:`RunPlanner` drives one window update's planning passes.  It
owns no cross-run state — that lives on the :class:`~repro.slider.system.
Slider` facade — and it never computes a value itself: every step it (or
a tree it drives) assembles is emitted into the run's
:class:`~repro.core.plan.Plan` and resolved by the engine's shared
:class:`~repro.core.execute.PlanExecutor`.

Since the plan-compile layer, the planner is also the plan cache's front
end: :meth:`RunPlanner.begin_run` keys the upcoming advance by (config
fingerprint, job identity, window motion, per-tree structure key) and on
a hit opens the executor in *replay* mode — trees still drive execution,
but step emission (the replanning work) is skipped.  On a miss the
freshly planned run is compiled and stored by
:meth:`RunPlanner.finish_run`.  Chaos bypasses the cache, and the
data-dependent variants (randomized, strawman) never enter it — their
``plan_structure_key`` is ``None``.

* **Map plan** — one ``map`` step per split in the update; the split uid
  is the step's plan-level cache edge.  Execution resolves it against the
  engine's map memo: a hit is a ``memo_read`` node (the split still in
  the window never re-runs its Map function), a miss runs the Map task
  and records ``map`` + ``shuffle`` nodes.
* **Tree plan** — each reducer's contraction tree plans the combines its
  delta needs, inside that reducer's attribution scope.
* **Reduce plan** — one ``reduce`` step per reducer; execution applies
  per-key change propagation (Algorithm 1), reducing changed keys and
  serving unchanged ones from the reduce memo.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

import dataclasses

from repro.common.errors import CombinerContractError
from repro.core.base import ContractionTree
from repro.core.compile import CompiledPlan, compile_plan
from repro.core.coalescing import CoalescingTree
from repro.core.folding import FoldingTree
from repro.core.memo import MemoTable
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


class RunPlanner:
    """Assembles and drives one run's plan against the engine's executor."""

    def __init__(self, engine: "Slider") -> None:
        self.engine = engine
        #: Key the in-flight run's fresh plan will be stored under (None
        #: when the run is uncacheable, bypassed, or replaying a hit).
        self._pending_key: tuple | None = None
        #: The plan key's constant part: config and job are fixed for the
        #: engine's life, and the cache is per engine.
        self._engine_key = (_config_key(engine.config), _job_key(engine.job))

    # -- the plan-cache front end -------------------------------------------

    def begin_run(
        self, label: str, added: Sequence[Split], removed: int
    ) -> CompiledPlan | None:
        """Open an advance on the executor, replaying a cached plan if the
        motion key hits.  Must be called *before* any tree state mutates —
        the key captures the pre-advance structure."""
        engine = self.engine
        key = self._plan_key(added, removed)
        compiled = None
        if key is not None:
            compiled = engine.plan_cache.lookup(key)
            if compiled is not None:
                engine.telemetry.count("plan_cache.hits")
                engine.telemetry.count(
                    "plan_cache.steps_replayed", len(compiled)
                )
            else:
                engine.telemetry.count("plan_cache.misses")
        self._pending_key = key if compiled is None else None
        engine.executor.begin_run(label, compiled=compiled)
        return compiled

    def finish_run(self, plan) -> None:
        """Compile and store the run planned fresh under the pending key."""
        engine = self.engine
        key, self._pending_key = self._pending_key, None
        if key is None:
            return
        with engine.telemetry.span("compile", SpanKind.PHASE):
            engine.plan_cache.store(key, compile_plan(plan))

    def _plan_key(self, added: Sequence[Split], removed: int) -> tuple | None:
        engine = self.engine
        config = engine.config
        if not config.plan_cache:
            return None
        if self._chaos_active():
            engine.telemetry.count("plan_cache.bypasses")
            engine.plan_cache.stats.bypasses += 1
            return None
        structure = []
        for tree in engine.trees:
            tree_key = tree.plan_structure_key()
            if tree_key is None:
                engine.telemetry.count("plan_cache.uncacheable")
                engine.plan_cache.stats.uncacheable += 1
                return None
            structure.append(tree_key)
        return (
            "advance", len(added), removed, *self._engine_key, tuple(structure)
        )

    def _chaos_active(self) -> bool:
        """Any fault schedule for this run bypasses the cache: chaos paths
        may branch execution in ways the compiled template cannot see."""
        chaos = self.engine.chaos
        if chaos is None:
            return False
        return chaos.for_run(self.engine.run_index) is not None

    # -- tree assembly -------------------------------------------------------

    def make_trees(self) -> list[ContractionTree]:
        return [
            self.make_tree(reducer)
            for reducer in range(self.engine.job.num_reducers)
        ]

    def make_tree(self, reducer: int = 0) -> ContractionTree:
        engine = self.engine
        memo = MemoTable(
            entries=engine.backend.tree_store(engine, reducer),
            backing=engine.cache,
            telemetry=engine.telemetry,
            verify_mode=engine.config.memo_verify,
            capacity=engine.config.memo_budget,
        )
        common = dict(
            meter=engine.meter,
            memo=memo,
            combine_cost_factor=engine.job.costs.combine_cost_factor,
            memo_read_cost=engine.job.costs.memo_read_cost_per_key,
            memo_write_cost=engine.job.costs.memo_write_cost_per_key,
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
            return FoldingTree(
                engine.job.combiner,
                rebuild_factor=engine.config.rebuild_factor,
                **common,
            )
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
        if variant == "strawman":
            return StrawmanTree(engine.job.combiner, **common)
        raise ValueError(f"unknown tree variant {variant!r}")

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
        recorder = executor.recorder
        meter = engine.meter
        if engine.blocks is not None:
            engine.blocks.store_all(splits)
        reused = sum(1 for s in splits if s.uid in engine.map_memo)
        for split in splits:
            executor.plan_step(
                "map",
                label=f"map:{split.uid:#x}",
                phase=Phase.MAP,
                n_inputs=1,
                memo_uid=split.uid,
            )
            if split.uid in engine.map_memo:
                read_cost = engine.job.costs.memo_read_cost_per_key * max(
                    1, len(split)
                )
                meter.charge(Phase.MEMO_READ, read_cost)
                recorder.map_reuse(
                    split.uid, engine.map_memo[split.uid], cost=read_cost
                )
                executor.record_map_cost(split.uid, 0.0)
                continue
            before = meter.total()
            map_before = meter.by_phase.get(Phase.MAP, 0.0)
            shuffle_before = meter.by_phase.get(Phase.SHUFFLE, 0.0)
            outputs = engine.map_memo[split.uid] = run_map_task(
                engine.job,
                split.records,
                engine.partitioner,
                meter,
                label=f"map:{split.uid:#x}",
                poison=executor.poison,
            )
            engine.map_keys += sum(len(p) for p in outputs)
            executor.record_map_cost(split.uid, meter.total() - before)
            recorder.map_task(
                split.uid,
                outputs,
                map_cost=meter.by_phase.get(Phase.MAP, 0.0) - map_before,
                shuffle_cost=meter.by_phase.get(Phase.SHUFFLE, 0.0)
                - shuffle_before,
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

    def reduce_all(  # analysis: charge-in-caller-span (reduce phase span)
        self, roots: list[Partition]
    ) -> tuple[dict[Any, Any], frozenset, frozenset]:
        """Plan one ``reduce`` step per reducer and resolve it per key.

        Change propagation is per-key (Algorithm 1): a key whose combined
        value did not change between runs keeps its memoized Reduce output
        at only a memo-read cost; changed and new keys pay the full Reduce
        cost.  Returns ``(outputs, changed_keys, removed_keys)``.
        """
        engine = self.engine
        executor = engine.executor
        recorder = executor.recorder
        meter = engine.meter
        outputs: dict[Any, Any] = {}
        read_cost = engine.job.costs.memo_read_cost_per_key
        reduce_cost = engine.job.costs.reduce_cost_per_key
        changed_keys: set[Any] = set()
        removed_keys: set[Any] = set()
        for reducer_index, root in enumerate(roots):
            executor.plan_step(
                "reduce",
                label=f"reduce:{reducer_index}",
                phase=Phase.REDUCE,
                n_inputs=1,
                reducer=reducer_index,
            )
            with executor.reducer_scope(reducer_index):
                memo = engine.reduce_memo[reducer_index]
                fresh: dict[Any, tuple[Any, Any]] = {}
                changed = 0
                unchanged = 0
                for key, value in root.items():
                    cached = memo.get(key)
                    if cached is not None and cached[0] == value:
                        output = cached[1]
                        unchanged += 1
                    else:
                        output = engine.job.reduce_fn(key, value)
                        changed += 1
                        changed_keys.add(key)
                        recorder.reduce_key(root, key, cost=reduce_cost)
                    fresh[key] = (value, output)
                    outputs[key] = output
                removed_keys.update(key for key in memo if key not in fresh)
                engine.reduce_memo[reducer_index] = fresh
                if changed:
                    meter.charge(Phase.REDUCE, changed * reduce_cost)
                if unchanged:
                    meter.charge(Phase.MEMO_READ, unchanged * read_cost)
                    recorder.reduce_reuse(
                        root, unchanged, cost=unchanged * read_cost
                    )
        return outputs, frozenset(changed_keys), frozenset(removed_keys)


def _config_key(config) -> tuple:
    """A stable fingerprint over *every* config field: any SliderConfig
    change must miss the plan cache, even fields that happen not to steer
    planning today."""
    return tuple(
        (field.name, repr(getattr(config, field.name)))
        for field in dataclasses.fields(config)
    )


def _job_key(job) -> tuple:
    """Job identity for the plan-cache key: a different job (name, fan-out,
    cost model, or combiner type) never shares compiled plans."""
    return (
        job.name,
        job.num_reducers,
        type(job.combiner).__qualname__,
        repr(job.costs),
    )
