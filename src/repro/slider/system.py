"""The Slider engine facade.

Runs a MapReduceJob over a sliding window incrementally.  Since the
plan/execute split, this module is a thin orchestrator over four
collaborators, one per concern:

* :class:`~repro.slider.planning.RunPlanner` — assembles each run's plan
  (map steps, contraction-tree steps, reduce steps) and drives it;
* :class:`~repro.core.execute.PlanExecutor` — the single execution
  substrate: resolves every planned step (memo lookup, combine, charge,
  record) and measures what the time model consumes;
* :class:`~repro.slider.execution.TimeSimulator` — prices the executed
  run on the simulated cluster as a map wave then a reduce wave, calm or
  under chaos;
* :class:`~repro.slider.lifecycle.LifecycleManager` — cross-run state:
  failure healing, garbage collection, space, output verification.

Each run logs one record an executed node, and the
:class:`SliderResult` returns two views of that log: a
:class:`~repro.core.plan.Plan` (memo-independent description of the
window update) and an executed :class:`~repro.core.taskgraph.TaskGraph`
(what actually ran, with costs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.cluster.cache import CacheConfig, DistributedMemoCache, GarbageCollector
from repro.cluster.chaos import ChaosPlan, ChaosSchedule
from repro.cluster.exec_types import ExecutorConfig
from repro.cluster.machine import Cluster
from repro.cluster.scheduler import HybridScheduler, Scheduler
from repro.common.errors import ReproError, WindowError
from repro.core.backends import ExecutionBackend, make_backend
from repro.core.base import ContractionTree
from repro.core.execute import PlanExecutor, RunExecution
from repro.core.partition import Partition
from repro.core.poison import DeadLetterQueue, PoisonContext
from repro.core.plan import Plan
from repro.core.taskgraph import TaskGraph
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.shuffle import HashPartitioner
from repro.mapreduce.types import Split, SplitWindow
from repro.metrics import Phase, RunReport, WorkMeter
from repro.slider.config import TREE_VARIANTS, SliderConfig
from repro.slider.execution import TimeSimulator
from repro.slider.lifecycle import LifecycleManager
from repro.slider.planning import PlanCache, RunPlanner
from repro.slider.window import WindowDelta, WindowMode
from repro.telemetry import ENGINE_KEEP_LAST, SpanKind, Telemetry

__all__ = [
    "Slider",
    "SliderConfig",
    "SliderResult",
    "TREE_VARIANTS",
]


@dataclass
class SliderResult:
    """Outputs plus the metrics of one run.

    ``changed_keys``/``removed_keys`` form the output *delta* of this run
    relative to the previous one — what a downstream consumer of the
    incrementally-maintained result needs to apply, without diffing the
    whole output dict itself.

    ``report`` is cut from the recorder's running totals (``by_phase``,
    the space counts), which no retention policy touches: it reads the
    same whether the spans of this run are still in ``engine.telemetry``
    or not.  The recorder you hand an engine keeps what you built it to
    keep; the one an engine makes for itself is a ring of the last
    :data:`~repro.telemetry.ENGINE_KEEP_LAST` runs.
    """

    outputs: dict[Any, Any]
    report: RunReport
    run_index: int
    reused_map_tasks: int = 0
    new_map_tasks: int = 0
    changed_keys: frozenset = frozenset()
    removed_keys: frozenset = frozenset()
    #: The run's executed task-graph IR: a view of the run's one log,
    #: built on first read (reading is O(nodes) once; ``len`` does not
    #: build).  Unread, the log is atoms and pins none of the run's
    #: partitions.
    graph: TaskGraph | None = None
    #: The run's own plan: the memo-independent step sequence that was
    #: executed, the other view of the same log (``len`` does not build).
    plan: Plan | None = None
    #: Never set.  Kept only because ``benchmarks/e2e/e2ebench/session.py``
    #: reads it (and treats ``None`` as "no batched steps").
    compiled: None = None
    #: True when the engine had advanced from this run's structural state
    #: before — the one run a process backend may dispatch.  The run
    #: itself executed as any other does.
    plan_cache_hit: bool = False
    #: Poison records/keys quarantined during this run (empty unless the
    #: engine was configured with a poison policy and user code raised).
    dead_letters: tuple = ()


class Slider:
    """Incremental sliding-window executor for one MapReduceJob."""

    def __init__(
        self,
        job: MapReduceJob,
        mode: WindowMode = WindowMode.VARIABLE,
        config: SliderConfig | None = None,
        cluster: Cluster | None = None,
        scheduler: Scheduler | None = None,
        cache_config: CacheConfig | None = None,
        chaos: ChaosSchedule | ChaosPlan | None = None,
        executor_config: ExecutorConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if config is not None and config.mode is not mode:
            config = replace(config, mode=mode)
        self.job = job
        self.config = config or SliderConfig(mode=mode)
        self.mode = mode
        self.partitioner = HashPartitioner(job.num_reducers)
        #: The telemetry backbone: one span tree shared by the engine, the
        #: trees, the distributed cache, the block store, and the executor.
        #: A recorder handed in keeps what it was built to keep; the one
        #: made here is a ring of the last ``ENGINE_KEEP_LAST`` runs.
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(label=f"slider:{job.name}", keep_last=ENGINE_KEEP_LAST)
        )
        self.meter = WorkMeter(telemetry=self.telemetry)
        self.window = SplitWindow()
        #: The unified plan executor: every sub-computation of every run —
        #: the engine's map/reduce passes and all tree combines — resolves
        #: here, and each run is logged here.
        self.executor = PlanExecutor(meter=self.meter)
        #: Dead-letter channel for poison records/keys (graceful
        #: degradation); None unless the config sets a poison policy.
        self.dead_letters: DeadLetterQueue | None = None
        if self.config.poison_policy is not None:
            self.dead_letters = DeadLetterQueue(
                policy=self.config.poison_policy, telemetry=self.telemetry
            )
            self.executor.poison = PoisonContext(queue=self.dead_letters)
        self.cluster = cluster
        self.scheduler = scheduler or HybridScheduler()
        self.cache: DistributedMemoCache | None = None
        self.gc: GarbageCollector | None = None
        self.blocks = None
        if cluster is not None:
            from repro.cluster.storage import BlockStore

            self.cache = DistributedMemoCache(
                cluster, cache_config, telemetry=self.telemetry
            )
            self.gc = GarbageCollector(self.cache)
            self.blocks = BlockStore(cluster, telemetry=self.telemetry)
        #: Fault schedule(s) the time simulation executes under; outputs
        #: are unaffected (the invariant `verify_outputs` checks).
        self.chaos = chaos
        self.executor_config = executor_config
        #: Machines chaos crashed during the latest simulated execution;
        #: healed at the start of the next run when the schedule says so.
        self.chaos_downed: list[int] = []
        self.last_recovery: dict[str, float] = {}
        #: split uid -> per-reducer map-output partitions.
        self.map_memo: dict[int, list[Partition]] = {}
        #: Keys held over every row of ``map_memo``, kept where rows are
        #: inserted (``RunPlanner.run_maps``) and evicted
        #: (``LifecycleManager.collect_garbage``): the map term of
        #: :meth:`space`.
        self.map_keys = 0
        #: per-reducer memoized Reduce outputs: key -> (root value, output).
        self.reduce_memo: list[dict[Any, tuple[Any, Any]]] = [
            {} for _ in range(job.num_reducers)
        ]
        #: key -> Reduce output, every reducer's: ``reduce_all`` patches it
        #: beside the memo, and a result's ``outputs`` is a copy of it.
        self.reduce_outputs: dict[Any, Any] = {}
        #: The structural states this engine has advanced from (keys
        #: only): what is left of the plan cache, and the process
        #: backend's first rung.
        self.plan_cache = PlanCache()
        #: The execution-backend seam: decides per run whether certified
        #: contraction passes dispatch to worker processes or run here.
        self.backend: ExecutionBackend = make_backend(
            self.config.execution_backend, self.config.workers
        )
        self.planner = RunPlanner(self)
        self.timing = TimeSimulator(self)
        self.lifecycle = LifecycleManager(self)
        self.trees: list[ContractionTree] = self.planner.make_trees()
        self.run_index = 0
        self._ran_initial = False
        self._closed = False
        #: The latest run's output delta.
        self._last_changed_keys: frozenset = frozenset()
        self._last_removed_keys: frozenset = frozenset()

    # -- lifecycle -------------------------------------------------------------

    def initial_run(self, splits: Sequence[Split]) -> SliderResult:
        """Process the first window from scratch, building all trees."""
        self._check_open()
        if self._ran_initial:
            raise WindowError("initial_run may only be called once")
        self._ran_initial = True
        self.lifecycle.heal_chaos()
        self.lifecycle.reset_degradation()
        phase_before = dict(self.telemetry.by_phase)
        with self.telemetry.span(
            "initial", SpanKind.WINDOW_UPDATE, run_index=self.run_index
        ):
            self.lifecycle.inject_corruption()
            if self.executor.poison is not None:
                self.executor.poison.context = "initial"
            self.executor.begin_run("initial")
            with self.telemetry.span("map", SpanKind.PHASE):
                self.planner.run_maps(splits)
            self.window.append(list(splits))

            per_reducer = self.planner.reducer_leaves(splits)
            with self.telemetry.span("contraction", SpanKind.PHASE):
                roots = self.planner.advance_trees(
                    lambda r, tree: tree.initial_run(per_reducer[r])
                )
            with self.telemetry.span("reduce", SpanKind.PHASE):
                outputs = self._reduce(roots)
            return self._finish_run(
                phase_before, outputs, reused=0, label="initial"
            )

    def advance(self, added: Sequence[Split], removed: int) -> SliderResult:
        """Slide the window and incrementally update the output."""
        self._check_open()
        if not self._ran_initial:
            raise WindowError("advance called before initial_run")
        WindowDelta(len(added), removed).validate(self.mode, len(self.window))

        self.lifecycle.heal_chaos()
        self.lifecycle.reset_degradation()
        phase_before = dict(self.telemetry.by_phase)
        with self.telemetry.span(
            f"incremental-{self.run_index}",
            SpanKind.WINDOW_UPDATE,
            run_index=self.run_index,
            added=len(added),
            removed=removed,
        ):
            self.lifecycle.inject_corruption()
            if self.executor.poison is not None:
                self.executor.poison.context = f"incremental-{self.run_index}"
            # Keys the advance off pre-mutation tree structure.
            self.planner.begin_run(
                f"incremental-{self.run_index}", added, removed
            )
            with self.telemetry.span("map", SpanKind.PHASE):
                reused = self.planner.run_maps(added)
            departed = self.window.drop_front(removed)
            self.window.append(list(added))
            candidates = self.planner.reduce_candidates(added, departed)
            per_reducer = self.planner.reducer_leaves(added)
            with self.telemetry.span("contraction", SpanKind.PHASE):
                roots = self.backend.contract(self, per_reducer, removed)
            with self.telemetry.span("reduce", SpanKind.PHASE):
                outputs = self._reduce(roots, candidates)
            result = self._finish_run(
                phase_before,
                outputs,
                reused=reused,
                label=f"incremental-{self.run_index}",
            )
            if self.config.auto_gc:
                self.collect_garbage()
            return result

    def background_preprocess(self) -> float:
        """Run the best-effort background phase on every tree (§4).

        Returns the background work charged.  No-op for trees without a
        split-processing mode.
        """
        self._check_open()
        before = self.meter.by_phase.get(Phase.BACKGROUND, 0.0)
        with self.telemetry.span("background", SpanKind.PHASE):
            for tree in self.trees:
                preprocess = getattr(tree, "background_preprocess", None)
                if preprocess is not None:
                    preprocess()
        return self.meter.by_phase.get(Phase.BACKGROUND, 0.0) - before

    # -- run assembly ---------------------------------------------------------

    def _reduce(self, roots: list[Partition], candidates=None) -> dict[Any, Any]:
        outputs, changed, removed = self.planner.reduce_all(roots, candidates)
        self._last_changed_keys = changed
        self._last_removed_keys = removed
        return outputs

    def _phase_delta(
        self, before: dict[Phase, float]
    ) -> dict[Phase, float]:
        """Per-run work delta, read directly off the telemetry backbone.

        Sorts the phases: set iteration over enum members follows object
        hashes, which vary across processes, and the float summation
        order downstream must not.
        """
        after = self.telemetry.by_phase
        return {
            phase: after.get(phase, 0.0) - before.get(phase, 0.0)
            for phase in sorted(set(after) | set(before), key=lambda p: p.value)
        }

    def _finish_run(
        self,
        phase_before: dict[Phase, float],
        outputs: dict[Any, Any],
        reused: int,
        label: str,
    ) -> SliderResult:
        phase_delta = self._phase_delta(phase_before)
        run: RunExecution = self.executor.end_run()
        self.planner.finish_run()
        work = sum(
            amount
            for phase, amount in phase_delta.items()
            if phase is not Phase.BACKGROUND
        )
        with self.telemetry.span("execute", SpanKind.PHASE, label=label):
            time = self.timing.simulate(phase_delta, run)
        report = RunReport(
            label=label,
            work=work,
            time=time,
            space=self.space(),
            breakdown={phase.value: amount for phase, amount in phase_delta.items()},
            recovery=dict(self.last_recovery),
        )
        self.last_recovery = {}
        result = SliderResult(
            outputs=outputs,
            report=report,
            run_index=self.run_index,
            reused_map_tasks=reused,
            new_map_tasks=sum(1 for cost in run.map_costs.values() if cost > 0),
            changed_keys=self._last_changed_keys,
            removed_keys=self._last_removed_keys,
            graph=TaskGraph(run.log),
            plan=Plan(run.log),
            plan_cache_hit=run.recurring,
            dead_letters=(
                self.dead_letters.drain()
                if self.dead_letters is not None
                else ()
            ),
        )
        self.run_index += 1
        return result

    # -- delegated maintenance ------------------------------------------------

    def set_chaos(
        self,
        chaos: ChaosSchedule | ChaosPlan | None,
        executor_config: ExecutorConfig | None = None,
    ) -> None:
        """Swap the fault schedule (and optionally executor knobs) between
        runs; pass ``None`` to go back to calm execution."""
        self.chaos = chaos
        if executor_config is not None:
            self.executor_config = executor_config

    def on_machine_failure(self, machine_id: int) -> int:
        """React to a worker crash (§6); see LifecycleManager."""
        return self.lifecycle.on_machine_failure(machine_id)

    def collect_garbage(self) -> int:
        """Drop memoized state that the current window can no longer use."""
        return self.lifecycle.collect_garbage()

    def close(self) -> None:
        """End this engine's life: release the execution backend (its
        worker pool) and let go of the window's state.

        Terminal and idempotent.  The planner, time simulator and
        lifecycle manager each hold the engine that holds them, so they
        are dropped here, with the window, the map memo and the trees:
        an engine let go of after ``close()`` is then freed by reference
        counting at once, rather than staying whole (with its copy of
        the window's records) until the next full cycle collection.
        Afterwards ``initial_run``, ``advance``, ``background_preprocess``
        and ``checkpoint`` raise :class:`~repro.common.errors.ReproError`;
        results already returned, ``telemetry`` and ``config`` stay
        readable.  An engine never closed still cleans its backend up on
        garbage collection and at process exit.
        """
        if self._closed:
            return
        self._closed = True
        self.backend.close()
        del self.planner, self.timing, self.lifecycle
        self.window = SplitWindow()
        self.map_memo.clear()
        self.map_keys = 0
        self.trees.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise ReproError(
                f"Slider for job {self.job.name!r} is closed: close() is "
                "terminal — restore from a checkpoint or build a new engine"
            )

    def space(self) -> float:
        """Memoized state retained across runs (Figure 13's space metric)."""
        return self.lifecycle.space()

    def current_outputs(self) -> dict[Any, Any]:
        """Re-derive outputs from current roots without charging work."""
        return self.lifecycle.current_outputs()

    def verify_outputs(self, outputs: dict[Any, Any] | None = None) -> int:
        """Invariant check: outputs equal a from-scratch batch run."""
        return self.lifecycle.verify_outputs(outputs)

    # -- durability -----------------------------------------------------------

    def checkpoint(self, path) -> None:
        """Write a durable, fingerprinted checkpoint of all cross-run state.

        See :mod:`repro.recovery.checkpoint`.  Refuses mid-run (open plan
        or open spans) with :class:`~repro.common.errors.CheckpointError`.
        """
        from repro.recovery.checkpoint import write_checkpoint

        self._check_open()
        write_checkpoint(self, path)

    @staticmethod
    def restore(path, job: MapReduceJob) -> "Slider":
        """Rebuild a Slider from a checkpoint written by :meth:`checkpoint`.

        ``job`` must be the same job the checkpoint was taken from (jobs
        carry user functions, which checkpoints do not serialize); segment
        fingerprints are verified eagerly and a mismatch raises
        :class:`~repro.common.errors.CorruptionError`.
        """
        from repro.recovery.checkpoint import restore_slider

        return restore_slider(path, job)
