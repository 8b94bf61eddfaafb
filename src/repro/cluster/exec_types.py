"""Shared types for the event-driven task-attempt executor (§6).

The record vocabulary of :mod:`repro.cluster.waveexec` and
:mod:`repro.cluster.executor`: the crash-handling constants, attempt
lifecycle states, per-attempt records, recovery accounting, storage-layer
fault hooks, and the report one execution returns.  Importable on its
own so the storage and slider layers can type against hooks and reports
without pulling in the executor machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.scheduler import Assignment, SimTask

#: Seconds of missed heartbeats before a crashed machine's attempts are
#: declared lost and rescheduled (the detection delay).
HEARTBEAT_TIMEOUT = 3.0
#: Failed/lost attempts allowed per task before TaskFailedError.
MAX_ATTEMPTS = 4
#: The first retry waits this long; each later one waits twice as long.
BACKOFF_BASE = 0.5


class AttemptState(enum.Enum):
    """Lifecycle of one task attempt."""

    RUNNING = "running"
    FINISHED = "finished"
    #: Died to a transient (task-level) failure.
    FAILED = "failed"
    #: Was on a machine that crashed; reaped at detection time.
    LOST = "lost"


@dataclass(eq=False)
class TaskAttempt:
    """One placement of a task on a (machine, slot), with its fate."""

    task: SimTask
    number: int
    machine_id: int
    slot_index: int
    start: float
    expected_finish: float
    epoch: int
    fetched: bool = False
    #: Dispatched to a crashed machine before the master noticed: it
    #: exists only in the master's imagination and can never finish.
    ghost: bool = False
    state: AttemptState = AttemptState.RUNNING
    finish: float | None = None


@dataclass
class RecoveryStats:
    """What fault tolerance cost during execution (the run report's view)."""

    attempts_started: int = 0
    attempts_finished: int = 0
    transient_failures: int = 0
    lost_attempts: int = 0
    crashes: int = 0
    crashes_detected: int = 0
    recoveries: int = 0
    #: Sum over lost attempts of (detection time - crash time).
    detection_delay: float = 0.0
    #: Total seconds tasks spent cooling off before retries.
    backoff_delay: float = 0.0
    #: Simulated seconds of execution thrown away by failures/crashes.
    wasted_work: float = 0.0

    def re_executed_attempts(self) -> int:
        return self.transient_failures + self.lost_attempts

    def as_dict(self) -> dict[str, float]:
        return {
            "attempts_started": float(self.attempts_started),
            "attempts_finished": float(self.attempts_finished),
            "transient_failures": float(self.transient_failures),
            "lost_attempts": float(self.lost_attempts),
            "re_executed_attempts": float(self.re_executed_attempts()),
            "crashes": float(self.crashes),
            "crashes_detected": float(self.crashes_detected),
            "recoveries": float(self.recoveries),
            "detection_delay": self.detection_delay,
            "backoff_delay": self.backoff_delay,
            "wasted_work": self.wasted_work,
        }


@dataclass
class ExecutorHooks:
    """Callbacks into the storage layers, fired as faults unfold.

    Each receives ``(machine_id, sim_time)``.  ``on_crash`` fires when the
    machine physically dies (in-memory state loss happens now);
    ``on_detect`` fires when the master notices (re-replication repair
    belongs here); ``on_recover`` fires when the machine rejoins.
    """

    on_crash: Callable[[int, float], None] | None = None
    on_detect: Callable[[int, float], None] | None = None
    on_recover: Callable[[int, float], None] | None = None


@dataclass
class ExecutionReport:
    """Everything one (multi-wave) execution produced."""

    makespan: float
    map_finish: float
    assignments: list[Assignment]
    attempts: list[TaskAttempt]
    stats: RecoveryStats


@dataclass(eq=False)
class _TaskState:
    """Executor-side bookkeeping for one task across its attempts."""

    task: SimTask
    order: int
    failures: int = 0
    done: bool = False
    cooling: bool = False
    attempts: list[TaskAttempt] = field(default_factory=list)
    winner: Assignment | None = None

    def has_live_attempt(self) -> bool:
        return any(a.state is AttemptState.RUNNING for a in self.attempts)


@dataclass(eq=False)
class _Commitment:
    """A planned (not yet started) attempt: task -> slot at [start, finish)."""

    state: _TaskState
    machine_id: int
    slot_index: int
    start: float
    finish: float
    fetched: bool
    cancelled: bool = False
