"""Time models: evaluate one executed run's cost on the simulated cluster.

The :class:`TimeSimulator` consumes what the unified executor measured
for a run (a :class:`~repro.core.execute.RunExecution`: per-split map
costs, per-reducer work, the executed task graph) and prices it under
the configured time model:

* ``"waves"`` — the legacy coarse cost model: one map wave with a
  barrier, then one reduce wave, with per-task locality preferences.
  Evaluated over the same executed plan, it reproduces every historical
  figure bit-for-bit.
* ``"dag"`` — replays the run's task graph at sub-computation
  granularity with topological readiness, so the makespan tracks the
  graph's critical path.  The one place under ``src/`` that reads a
  run's nodes, and so the one that makes the graph build them.

Chaos schedules route either model through the fault-tolerant executor,
with the engine's lifecycle manager healing the storage layers via
:class:`~repro.cluster.executor.ExecutorHooks`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.executor import ExecutorHooks, execute_dag, execute_two_waves
from repro.cluster.scheduler import SimTask, simulate_two_waves
from repro.common.errors import ReproError
from repro.common.hashing import stable_hash
from repro.core.execute import RunExecution
from repro.core.taskgraph import TaskGraph, TaskNode
from repro.metrics import Phase
from repro.telemetry import SpanKind

if TYPE_CHECKING:  # pragma: no cover - type-only facade reference
    from repro.cluster.chaos import ChaosSchedule
    from repro.slider.system import Slider


class TimeSimulator:
    """Prices an executed run on the cluster under the configured model."""

    def __init__(self, engine: "Slider") -> None:
        self.engine = engine

    def simulate(
        self, phase_delta: dict[Phase, float], run: RunExecution
    ) -> float:
        """Price this run's tasks on the cluster; fall back to work-as-time."""
        engine = self.engine
        foreground = sum(
            amount
            for phase, amount in phase_delta.items()
            if phase is not Phase.BACKGROUND
        )
        if engine.cluster is None:
            return foreground
        if engine.config.time_model == "dag":
            return self._replay_dag(run.graph)
        return self._wave_cost_model(foreground, run)

    # -- the coarse two-wave cost model --------------------------------------

    def _wave_cost_model(self, foreground: float, run: RunExecution) -> float:
        engine = self.engine
        map_tasks = []
        for uid, cost in run.map_costs.items():
            if cost <= 0:
                continue
            if engine.blocks is not None:
                preferred = engine.blocks.preferred_machine(uid)
            else:
                preferred = stable_hash(uid, salt="splitloc") % len(
                    engine.cluster
                )
            map_tasks.append(
                SimTask(
                    label=f"map:{uid:#x}",
                    cost=cost,
                    preferred_machine=preferred,
                    fetch_bytes=cost,
                    kind="map",
                )
            )
        map_total = sum(t.cost for t in map_tasks)
        reduce_side = foreground - map_total
        reduce_tasks = []
        # Per-reducer costs measured by the executor during the run; any
        # residue (shuffle, map-side memo reads) spreads evenly.
        tree_costs = run.reducer_cost_list(len(engine.trees))
        residue = max(0.0, reduce_side - sum(tree_costs)) / max(
            1, len(engine.trees)
        )
        for reducer_index, tree in enumerate(engine.trees):
            reduce_tasks.append(
                SimTask(
                    label=f"reduce:{reducer_index}",
                    cost=max(tree_costs[reducer_index] + residue, 0.0),
                    preferred_machine=stable_hash(
                        (engine.job.name, reducer_index), salt="memoloc"
                    )
                    % len(engine.cluster),
                    # A reduce task migrated away from its memoized state
                    # must pull that state (tree node values) over the
                    # network.
                    fetch_bytes=tree.space(),
                    kind="reduce",
                )
            )
        schedule = self._chaos_schedule()
        if schedule is None and engine.executor_config is None:
            # Calm run on the default executor knobs: the plain wrapper,
            # bit-identical to the historical greedy figures.
            makespan, assignments = simulate_two_waves(
                map_tasks, reduce_tasks, engine.cluster, engine.scheduler
            )
            self._record_attempts(assignments)
            return makespan
        return self._execute_under_chaos(map_tasks, reduce_tasks, schedule)

    def _record_attempts(self, assignments) -> None:
        """Mirror a calm wave's task placements into the span tree, on each
        machine's trace lane with simulated-clock timestamps."""
        for a in assignments:
            self.engine.telemetry.record_span(
                a.task.label,
                SpanKind.ATTEMPT,
                start=a.start,
                end=a.finish,
                thread=f"m{a.machine_id}",
                task_kind=a.task.kind,
                fetched=a.fetched,
            )

    # -- the dag replay model -------------------------------------------------

    def _replay_dag(self, graph: TaskGraph | None) -> float:
        """Replay the run's task graph at sub-computation granularity.

        Every recorded node becomes one schedulable task with its own
        locality preference; dependency edges gate readiness, so the
        makespan tracks the graph's critical path instead of the coarse
        map-barrier-then-per-reducer-sum of the two-wave model.
        """
        engine = self.engine
        if graph is None:
            raise ReproError(
                'time_model="dag" needs a recorded task graph for the run'
            )
        tasks, deps = self._dag_tasks(graph)
        schedule = self._chaos_schedule()
        if schedule is None:
            report = execute_dag(
                tasks,
                deps,
                engine.cluster,
                engine.scheduler,
                config=engine.executor_config,
                telemetry=engine.telemetry,
            )
            return report.makespan
        repair_bytes_before = (
            engine.cache.stats.repair_bytes if engine.cache is not None else 0.0
        )
        block_traffic_before = (
            engine.blocks.repair_traffic if engine.blocks is not None else 0.0
        )
        hooks = ExecutorHooks(
            on_crash=engine.lifecycle.on_chaos_crash,
            on_detect=engine.lifecycle.on_chaos_detect,
        )
        report = execute_dag(
            tasks,
            deps,
            engine.cluster,
            engine.scheduler,
            config=engine.executor_config,
            chaos=schedule,
            hooks=hooks,
            telemetry=engine.telemetry,
        )
        self._note_recovery(report, repair_bytes_before, block_traffic_before)
        return report.makespan

    def _dag_tasks(
        self, graph: TaskGraph
    ) -> tuple[list[SimTask], dict[str, list[str]]]:
        """Lower graph nodes to SimTasks with locality and dependency maps."""
        labels = [f"n{node.uid}:{node.kind}" for node in graph.nodes]
        tasks: list[SimTask] = []
        deps: dict[str, list[str]] = {}
        for node in graph.nodes:
            tasks.append(
                SimTask(
                    label=labels[node.uid],
                    cost=node.cost,
                    preferred_machine=self._dag_preferred(node),
                    fetch_bytes=node.data_size,
                    kind=node.kind,
                )
            )
            deps[labels[node.uid]] = [labels[dep] for dep in node.deps]
        return tasks, deps

    def _dag_preferred(self, node: TaskNode) -> int | None:
        """Locality score: block-store placement for split-bound nodes,
        distributed-cache ownership for memoized state, and the reducer's
        memo home for the rest of its tree."""
        engine = self.engine
        if node.split_uid is not None:
            if engine.blocks is not None:
                return engine.blocks.preferred_machine(node.split_uid)
            return stable_hash(node.split_uid, salt="splitloc") % len(
                engine.cluster
            )
        if node.memo_uid is not None and engine.cache is not None:
            owner = engine.cache.owner_of(node.memo_uid)
            if owner is not None and engine.cluster.machine(owner).alive:
                return owner
        if node.reducer is not None:
            return stable_hash(
                (engine.job.name, node.reducer), salt="memoloc"
            ) % len(engine.cluster)
        return None

    # -- chaos wiring ---------------------------------------------------------

    def _chaos_schedule(self) -> "ChaosSchedule | None":
        engine = self.engine
        if engine.chaos is None:
            return None
        schedule = engine.chaos.for_run(engine.run_index)
        if schedule is not None and schedule.is_empty():
            return None
        return schedule

    def _execute_under_chaos(
        self,
        map_tasks: list[SimTask],
        reduce_tasks: list[SimTask],
        schedule: "ChaosSchedule | None",
    ) -> float:
        """Run the wave pair on the fault-tolerant executor, reacting to
        crashes with cache/block-store re-replication, and record the
        recovery costs for the run report."""
        engine = self.engine
        repair_bytes_before = (
            engine.cache.stats.repair_bytes if engine.cache is not None else 0.0
        )
        block_traffic_before = (
            engine.blocks.repair_traffic if engine.blocks is not None else 0.0
        )
        hooks = ExecutorHooks(
            on_crash=engine.lifecycle.on_chaos_crash,
            on_detect=engine.lifecycle.on_chaos_detect,
        )
        report = execute_two_waves(
            map_tasks,
            reduce_tasks,
            engine.cluster,
            engine.scheduler,
            config=engine.executor_config,
            chaos=schedule,
            hooks=hooks,
            telemetry=engine.telemetry,
        )
        self._note_recovery(report, repair_bytes_before, block_traffic_before)
        return report.makespan

    def _note_recovery(
        self, report, repair_bytes_before: float, block_traffic_before: float
    ) -> None:
        engine = self.engine
        recovery = report.stats.as_dict()
        recovery["map_finish"] = report.map_finish
        if engine.cache is not None:
            recovery["repair_bytes"] = (
                engine.cache.stats.repair_bytes - repair_bytes_before
            )
        if engine.blocks is not None:
            recovery["block_repair_traffic"] = (
                engine.blocks.repair_traffic - block_traffic_before
            )
        # Merge, not replace: corruption-repair stats recorded by the
        # lifecycle layer earlier in this run must survive the simulation.
        for key, value in recovery.items():
            engine.last_recovery[key] = (
                engine.last_recovery.get(key, 0.0) + value
            )
