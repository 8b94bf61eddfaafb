"""Task scheduling policies (§6).

Three policies:

* :class:`HadoopScheduler` — the vanilla policy: Map tasks respect input
  locality; Reduce tasks take the first available slot anywhere, paying a
  network fetch for memoized state left on another machine.
* :class:`MemoizationScheduler` — strict locality for memoized state: a
  Reduce task waits for a slot on the machine holding its memoized results,
  even if that machine straggles.
* :class:`HybridScheduler` — Slider's scheduler: prefer the memoized
  location, but migrate (paying the fetch) when that machine is detected to
  be slow or backed up.

Each policy answers one question — which slot takes this task — against
a projected free-time matrix; :class:`~repro.cluster.waveexec.WaveExecutor`
asks it for every task of a wave and runs the result, and
:mod:`repro.cluster.executor` returns the makespan, the *time* metric of
the evaluation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.cluster.machine import Cluster


@dataclass
class SimTask:
    """A schedulable task: cost in work units, plus data affinity.

    ``preferred_machine`` is where this task's input (split replica or
    memoized state) lives; ``fetch_bytes`` is how much must cross the
    network when it runs elsewhere.
    """

    label: str
    cost: float
    preferred_machine: int | None = None
    fetch_bytes: float = 0.0
    kind: str = "task"


@dataclass
class Assignment:
    task: SimTask
    machine_id: int
    start: float
    finish: float
    fetched: bool


class Scheduler(ABC):
    """Chooses a machine (and implicitly a start time) for each task."""

    name = "scheduler"

    @abstractmethod
    def choose(
        self,
        task: SimTask,
        free_times: list[list[float]],
        cluster: Cluster,
    ) -> tuple[int, int]:
        """Return (machine_id, slot_index) for ``task``.

        ``free_times[m][s]`` is the time slot ``s`` of machine ``m`` becomes
        free.  Dead machines have empty slot lists.
        """

    @staticmethod
    def _earliest(free_times: list[list[float]]) -> tuple[int, int]:
        best: tuple[float, int, int] | None = None
        for machine_id, slots in enumerate(free_times):
            for slot_index, when in enumerate(slots):
                key = (when, machine_id, slot_index)
                if best is None or key < best:
                    best = key
        if best is None:
            raise ValueError("no schedulable slots")
        return best[1], best[2]

    @staticmethod
    def _earliest_on(
        machine_id: int, free_times: list[list[float]]
    ) -> tuple[int, int] | None:
        slots = free_times[machine_id]
        if not slots:
            return None
        slot_index = min(range(len(slots)), key=lambda s: slots[s])
        return machine_id, slot_index


class HadoopScheduler(Scheduler):
    """Locality for Maps, first-free-slot-anywhere for Reduces (§6).

    "First available" in Hadoop is arbitrary with respect to machine
    identity (heartbeat order), so ties between equally-free slots are
    broken by a stable hash of (task, machine) rather than by machine id —
    otherwise the simulation would deterministically pile tasks onto
    machine 0.
    """

    name = "hadoop"

    def choose(self, task, free_times, cluster):
        if task.kind == "map" and task.preferred_machine is not None:
            local = self._earliest_on(task.preferred_machine, free_times)
            global_best = self._first_available(task, free_times)
            if local is not None:
                # Hadoop's delay-scheduling style preference: take the local
                # slot unless it is badly backed up.
                local_free = free_times[local[0]][local[1]]
                global_free = free_times[global_best[0]][global_best[1]]
                if local_free <= global_free + 1.0:
                    return local
            return global_best
        return self._first_available(task, free_times)

    @staticmethod
    def _first_available(task, free_times) -> tuple[int, int]:
        from repro.common.hashing import stable_hash

        best: tuple[float, int, int, int] | None = None
        for machine_id, slots in enumerate(free_times):
            for slot_index, when in enumerate(slots):
                tiebreak = stable_hash(
                    (task.label, machine_id, slot_index), salt="hb"
                )
                key = (when, tiebreak, machine_id, slot_index)
                if best is None or key < best:
                    best = key
        if best is None:
            raise ValueError("no schedulable slots")
        return best[2], best[3]


class MemoizationScheduler(Scheduler):
    """Strict affinity to the machine holding memoized state."""

    name = "memoization"

    def choose(self, task, free_times, cluster):
        if task.preferred_machine is not None:
            local = self._earliest_on(task.preferred_machine, free_times)
            if local is not None:
                return local
        return self._earliest(free_times)


class HybridScheduler(Scheduler):
    """Slider's scheduler: memoization locality with straggler migration.

    Estimates per-slot finish times (including the fetch penalty for
    running away from the memoized state).  The task stays local unless a
    remote slot would finish more than ``patience`` seconds sooner — which
    happens exactly when the preferred machine is slow (a straggler) or
    backed up.
    """

    name = "hybrid"

    def __init__(self, patience: float = 1.0):
        self.patience = patience

    def choose(self, task, free_times, cluster):
        best: tuple[float, int, int] | None = None
        local: tuple[float, int, int] | None = None
        for machine_id, slots in enumerate(free_times):
            if not slots:
                continue
            machine = cluster.machine(machine_id)
            for slot_index, free in enumerate(slots):
                finish = free + machine.duration_for(task.cost)
                if (
                    task.preferred_machine is not None
                    and machine_id != task.preferred_machine
                ):
                    finish += (
                        task.fetch_bytes * cluster.config.network_cost_per_byte
                    )
                key = (finish, machine_id, slot_index)
                if best is None or key < best:
                    best = key
                if machine_id == task.preferred_machine and (
                    local is None or key < local
                ):
                    local = key
        if best is None:
            raise ValueError("no schedulable slots")
        if local is not None and local[0] <= best[0] + self.patience:
            return local[1], local[2]
        return best[1], best[2]


__all__ = [
    "SimTask",
    "Assignment",
    "Scheduler",
    "HadoopScheduler",
    "MemoizationScheduler",
    "HybridScheduler",
]
