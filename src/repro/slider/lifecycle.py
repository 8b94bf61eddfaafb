"""Cross-run lifecycle: failure healing, garbage collection, verification.

The :class:`LifecycleManager` owns everything that happens *between* a
Slider's runs: reviving chaos-crashed machines, reacting to worker
failures (§6), dropping memoized state the window can no longer use,
measuring retained space (Figure 13), and checking the core invariant —
incremental outputs always equal a from-scratch batch run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.common.approx import same_value
from repro.common.errors import ReproError, SchedulingError

if TYPE_CHECKING:  # pragma: no cover - type-only facade reference
    from repro.slider.system import Slider


class LifecycleManager:
    """Maintains a Slider's cross-run state (storage, failures, GC)."""

    def __init__(self, engine: "Slider") -> None:
        self.engine = engine

    # -- failure handling ----------------------------------------------------

    def heal_chaos(self) -> None:
        """Revive chaos-crashed machines before the next run when the
        schedule heals (mirrors FaultInjector's ``heal``)."""
        engine = self.engine
        if not engine.chaos_downed:
            return
        if engine.chaos is None or getattr(engine.chaos, "heal", True):
            for machine_id in engine.chaos_downed:
                if not engine.cluster.machine(machine_id).alive:
                    engine.cluster.revive(machine_id)
        engine.chaos_downed = []

    def reset_degradation(self) -> int:
        """Re-arm degraded memo tables at the start of a fresh run.

        A backing-store failure flips a table into local-only mode for
        the rest of its run; a new run should try the backing again (it
        may have been repaired or re-replicated in between).  Returns
        the number of tables that were actually reset; each reset emits
        a ``memo.degraded_reset`` telemetry instant.
        """
        return sum(
            1 for tree in self.engine.trees if tree.memo.reset_degraded()
        )

    def on_chaos_crash(self, machine_id: int, when: float) -> None:
        """The machine physically died: its RAM (cache shard) is gone and
        the trees' process-local memo views can no longer be trusted."""
        engine = self.engine
        engine.chaos_downed.append(machine_id)
        if engine.cache is not None:
            engine.cache.on_machine_failure(machine_id)
        for tree in engine.trees:
            tree.memo.entries.clear()

    def on_chaos_detect(self, machine_id: int, when: float) -> None:
        """The master noticed the crash: re-replicate what lost a copy."""
        engine = self.engine
        if engine.blocks is not None:
            engine.blocks.on_machine_failure(machine_id)
        if engine.cache is not None:
            engine.cache.repair()

    def on_machine_failure(self, machine_id: int) -> int:
        """React to a worker crash (§6).

        The crashed machine's share of the in-memory distributed cache is
        lost; the block store re-replicates its blocks; and the trees'
        process-local memo views are invalidated, so subsequent lookups go
        through the shim I/O layer (replicas when the memory copy is
        gone).  Returns the number of in-memory cache objects lost.
        """
        engine = self.engine
        if engine.cluster is None:
            raise SchedulingError(
                f"on_machine_failure({machine_id}): this Slider runs "
                "without a cluster — construct it with Slider(..., "
                "cluster=Cluster(...)) to simulate machine failures"
            )
        engine.cluster.machine(machine_id)  # raises on unknown ids
        lost = 0
        if engine.cache is not None:
            lost = engine.cache.on_machine_failure(machine_id)
        if engine.blocks is not None:
            engine.blocks.on_machine_failure(machine_id)
        for tree in engine.trees:
            tree.memo.entries.clear()
        return lost

    # -- corruption injection and repair -------------------------------------

    def inject_corruption(self) -> dict[str, float]:
        """Inject this run's scheduled corruption and repair it eagerly.

        Called inside the window-update span, before the run's plan opens:
        the repair recomputes land in the run's phase delta, so corruption
        costs work but never changes outputs.  Merges repair stats into
        ``engine.last_recovery`` and returns them.
        """
        engine = self.engine
        schedule = None
        if engine.chaos is not None:
            schedule = engine.chaos.for_run(engine.run_index)
        if schedule is None or not getattr(schedule, "corruptions", None):
            return {}
        from repro.recovery.repair import inject_and_repair

        stats = inject_and_repair(engine, schedule)
        for key, value in stats.items():
            engine.last_recovery[key] = (
                engine.last_recovery.get(key, 0.0) + value
            )
        return stats

    # -- garbage collection and space ----------------------------------------

    def collect_garbage(self) -> int:
        """Drop memoized state that the current window can no longer use.

        The map memo loses exactly the splits that left the window since
        the last collection (:meth:`SplitWindow.take_departed`), so the
        cost follows the slide and not the window — whether this runs
        after every advance (``auto_gc``) or after many.  The tree-side
        steps keep their whole-table shape: ``retain_only`` walks only a
        strawman's (empty) table, and the distributed cache's collection,
        which does walk every tree's entries, runs only with a cluster
        attached — the path the paper's figures take, where flat
        wall-clock is not the claim.
        """
        engine = self.engine
        dropped = 0
        for uid in engine.window.take_departed():
            row = engine.map_memo.pop(uid, None)
            if row is None:
                continue
            engine.map_keys -= sum(len(p) for p in row)
            dropped += 1
            if engine.blocks is not None:
                engine.blocks.drop_split(uid)
        for tree in engine.trees:
            live = getattr(tree, "live_memo_uids", None)
            if live is not None:
                dropped += tree.memo.retain_only(live())
        if engine.gc is not None and engine.cache is not None:
            # The distributed cache mirrors tree memo tables; retain union.
            live_uids: set[int] = set()
            for tree in engine.trees:
                live = getattr(tree, "live_memo_uids", None)
                if live is not None:
                    live_uids |= live()
                else:
                    live_uids |= set(tree.memo.entries)
            engine.gc.collect(live_uids)
        return dropped

    def space(self) -> float:
        """Memoized state retained across runs (Figure 13's space metric):
        the keys of every map-memo row, every tree memo entry and every
        positionally cached node.

        Read from the counts kept where each of those is inserted and
        evicted (``engine.map_keys``, :meth:`ContractionTree.space`), so
        it costs one addition per tree whatever the window holds;
        :meth:`recount` is the same number by definition.
        """
        engine = self.engine
        return float(engine.map_keys) + sum(tree.space() for tree in engine.trees)

    def recount(self) -> float:
        """:meth:`space` re-derived by walking all retained state.

        The one O(state) form of the sum.  It also resets the counts it
        re-derives, which is what a restore needs after setting the map
        memo and the trees' caches wholesale; the tests use it as the
        oracle for :meth:`space`.  ``advance`` never calls it.
        """
        engine = self.engine
        engine.map_keys = sum(
            len(p) for row in engine.map_memo.values() for p in row
        )
        return float(engine.map_keys) + sum(
            tree.recount() for tree in engine.trees
        )

    # -- output verification --------------------------------------------------

    def current_outputs(self) -> dict[Any, Any]:
        """Re-derive outputs from current roots without charging work."""
        engine = self.engine
        outputs: dict[Any, Any] = {}
        for tree in engine.trees:
            for key, value in tree.root().items():
                outputs[key] = engine.job.reduce_fn(key, value)
        return outputs

    def verify_outputs(self, outputs: dict[Any, Any] | None = None) -> int:
        """Invariant check: outputs equal a from-scratch batch run.

        Chaos only perturbs the *time* simulation and the storage layers;
        the incremental computation must still produce what a fault-free
        batch execution over the current window produces: ``==`` when the
        job's combiner declares itself ``exact``, equal to the float
        tolerance of :func:`~repro.common.approx.same_value` when its
        merge re-associates float sums (a tree brackets the window
        differently from the batch run).  Raises
        :class:`~repro.common.errors.ReproError` on any divergence;
        returns the number of keys checked.
        """
        from repro.mapreduce.runtime import BatchRuntime

        engine = self.engine
        exact = engine.job.combiner.exact
        expected = BatchRuntime(engine.job).run(list(engine.window)).outputs
        actual = outputs if outputs is not None else self.current_outputs()
        if not same_value(actual, expected, exact=exact):
            missing = sorted(
                str(k) for k in expected.keys() - actual.keys()
            )[:5]
            extra = sorted(str(k) for k in actual.keys() - expected.keys())[:5]
            wrong = sorted(
                str(k)
                for k in expected.keys() & actual.keys()
                if not same_value(actual[k], expected[k], exact=exact)
            )[:5]
            raise ReproError(
                "incremental outputs diverged from the batch run: "
                f"missing={missing} extra={extra} wrong={wrong}"
            )
        return len(expected)
