"""The two entry points that run waves on the simulated cluster.

Each constructs a :class:`~repro.cluster.waveexec.WaveExecutor`, drives
it to completion, restores any still-open straggle episodes, and packages
the result as an :class:`~repro.cluster.exec_types.ExecutionReport`.
``execute_two_waves`` is the paper's time model — a map wave, a shuffle
barrier, then a reduce wave — and ``execute_wave`` runs one wave alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.cluster.exec_types import ExecutionReport, ExecutorHooks
from repro.cluster.machine import Cluster
from repro.cluster.scheduler import Scheduler, SimTask
from repro.cluster.waveexec import WaveExecutor
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.cluster.chaos import ChaosSchedule


def execute_wave(
    tasks: Sequence[SimTask],
    cluster: Cluster,
    scheduler: Scheduler,
    chaos: "ChaosSchedule | None" = None,
    hooks: ExecutorHooks | None = None,
    telemetry: Telemetry | None = None,
) -> ExecutionReport:
    """Execute a single wave to completion."""
    executor = WaveExecutor(cluster, scheduler, chaos=chaos, hooks=hooks,
                            telemetry=telemetry)
    try:
        finish, assignments = executor.run(tasks)
    finally:
        executor.restore_straggles()
    return ExecutionReport(
        makespan=finish,
        map_finish=finish,
        assignments=assignments,
        attempts=executor.attempt_log,
        stats=executor.stats,
    )


def execute_two_waves(
    map_tasks: Sequence[SimTask],
    reduce_tasks: Sequence[SimTask],
    cluster: Cluster,
    scheduler: Scheduler,
    chaos: "ChaosSchedule | None" = None,
    hooks: ExecutorHooks | None = None,
    telemetry: Telemetry | None = None,
) -> ExecutionReport:
    """Maps, a shuffle barrier, then reduces — one MapReduce job's time."""
    executor = WaveExecutor(cluster, scheduler, chaos=chaos, hooks=hooks,
                            telemetry=telemetry)
    try:
        map_finish, map_log = executor.run(map_tasks)
        reduce_finish, reduce_log = executor.run(reduce_tasks)
    finally:
        executor.restore_straggles()
    return ExecutionReport(
        makespan=reduce_finish,
        map_finish=map_finish,
        assignments=map_log + reduce_log,
        attempts=executor.attempt_log,
        stats=executor.stats,
    )
