"""The time model: price one executed run on the simulated cluster.

The :class:`TimeSimulator` consumes what the unified executor measured
for a run (a :class:`~repro.core.execute.RunExecution`: per-split map
costs and per-reducer work) and prices it as the paper's Hadoop job: one
map wave with a barrier, then one reduce wave, with per-task locality
preferences.  Evaluated over the executed plan, it reproduces every
historical figure bit-for-bit.

Chaos schedules route the wave pair through the fault-tolerant executor,
with the engine's lifecycle manager healing the storage layers via
:class:`~repro.cluster.exec_types.ExecutorHooks`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.cluster.exec_types import ExecutorHooks
from repro.cluster.executor import execute_two_waves
from repro.cluster.machine import Cluster
from repro.cluster.scheduler import Scheduler, SimTask
from repro.common.hashing import stable_hash
from repro.core.execute import RunExecution
from repro.metrics import Phase
from repro.telemetry import SpanKind, Telemetry

if TYPE_CHECKING:  # pragma: no cover - type-only facade reference
    from repro.cluster.chaos import ChaosSchedule
    from repro.slider.system import Slider


def calm_two_waves(
    map_tasks: Sequence[SimTask],
    reduce_tasks: Sequence[SimTask],
    cluster: Cluster,
    scheduler: Scheduler,
    telemetry: Telemetry,
) -> float:
    """Run the wave pair on a calm cluster and return its makespan; each
    task's placement is mirrored into the span tree on its machine's trace
    lane with simulated-clock timestamps (the executor itself stays
    silent, so a calm run counts no ``executor.*`` attempts)."""
    report = execute_two_waves(map_tasks, reduce_tasks, cluster, scheduler)
    for a in report.assignments:
        telemetry.record_span(
            a.task.label,
            SpanKind.ATTEMPT,
            start=a.start,
            end=a.finish,
            thread=f"m{a.machine_id}",
            task_kind=a.task.kind,
            fetched=a.fetched,
        )
    return report.makespan


class TimeSimulator:
    """Prices an executed run on the cluster as two waves."""

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
        return self._wave_cost_model(foreground, run)

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
            # Calm run on the default executor knobs: bit-identical to the
            # historical greedy figures.
            return calm_two_waves(
                map_tasks, reduce_tasks, engine.cluster, engine.scheduler,
                engine.telemetry,
            )
        return self._execute_under_chaos(map_tasks, reduce_tasks, schedule)

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
        return report.makespan
