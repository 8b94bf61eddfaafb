"""Event-driven task-attempt execution with mid-wave fault tolerance (§6).

The greedy list scheduler in :mod:`repro.cluster.scheduler` *plans* a wave
as if nothing ever fails.  This module *executes* waves: each task becomes
a sequence of **attempts** driven through the shared
:class:`~repro.cluster.simulation.EventQueue`/:class:`~repro.cluster.simulation.SimClock`.
The executor processes attempt-start, task-finish, transient-failure,
machine-crash, heartbeat-timeout (crash detection), machine-recover,
straggle-episode, and heartbeat (speculation) events:

* attempts on a crashed machine keep "running" as zombies until the
  master misses heartbeats for ``heartbeat_timeout`` seconds, then they
  are reaped and rescheduled with exponential backoff;
* a task whose attempts fail ``max_attempts`` times surfaces a typed
  :class:`~repro.common.errors.TaskFailedError`;
* slow attempts past a LATE-style progress threshold spawn speculative
  backups with first-finish-wins semantics (the loser is killed).

Execution separates *planning* from *running*.  Planning is greedy list
scheduling — tasks in longest-processing-time order, each policy's
``choose()`` against the evolving projected free-time matrix — producing
per-slot queues of committed attempts.  Running turns each commitment
into timed events.  Any fault (transient failure, crash detection,
recovery, straggle episode, a speculative win) cancels every
not-yet-started commitment and replans it against the post-fault
cluster.  Fault-free (no chaos, speculation off) nothing ever invalidates
the plan, so start times, placements, and the makespan are *identical*
to the greedy list schedule, and the paper's figures and tables are that
schedule's makespans.

The fault/speculation handlers live in :mod:`repro.cluster.exec_faults`;
the two entry points (``execute_wave`` / ``execute_two_waves``) in
:mod:`repro.cluster.executor`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.cluster.exec_faults import FaultMachineryMixin
from repro.cluster.exec_types import (
    AttemptState,
    ExecutorConfig,
    ExecutorHooks,
    RecoveryStats,
    TaskAttempt,
    _Commitment,
    _TaskState,
)
from repro.cluster.machine import Cluster, Machine
from repro.cluster.scheduler import Assignment, Scheduler, SimTask
from repro.cluster.simulation import EventQueue, SimClock
from repro.common.errors import SchedulingError
from repro.telemetry import SpanKind, Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.cluster.chaos import ChaosSchedule


class WaveExecutor(FaultMachineryMixin):
    """Executes task waves on a cluster, one event at a time.

    One executor instance may run several consecutive waves (``run`` is a
    barrier); the clock, pending chaos events, and machine visibility
    carry over, so a crash scheduled during the map wave is still being
    repaired while the reduce wave runs.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        config: ExecutorConfig | None = None,
        chaos: "ChaosSchedule | None" = None,
        hooks: ExecutorHooks | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.config = config or ExecutorConfig()
        self.chaos = chaos
        self.hooks = hooks or ExecutorHooks()
        #: Telemetry backbone to emit attempt spans and fault events into;
        #: ``None`` keeps the executor silent (standalone/unit-test use).
        self.telemetry = telemetry
        self.clock = SimClock()
        self.events = EventQueue()
        self.stats = RecoveryStats()
        self.attempt_log: list[TaskAttempt] = []
        #: Master's view: which machines it believes schedulable.  A
        #: crashed machine stays visible (and collects doomed dispatches)
        #: until the heartbeat timeout expires.
        self._visible: list[bool] = [m.alive for m in cluster.machines]
        #: Bumped on crash and on recover; attempts carry the epoch they
        #: started under, so stale finish events are recognisable.
        self._epoch: list[int] = [0] * len(cluster.machines)
        self._running: list[list[TaskAttempt | None]] = [
            [None] * m.slots for m in cluster.machines
        ]
        #: Planned-but-not-started commitments, per slot, in start order.
        self._queues: list[list[list[_Commitment]]] = [
            [[] for _ in range(m.slots)] for m in cluster.machines
        ]
        #: Attempts the master believes started on a machine that was in
        #: fact already dead; reaped at detection/recovery.
        self._ghosts: list[list[TaskAttempt]] = [
            [] for _ in cluster.machines
        ]
        self._owner: dict[TaskAttempt, _TaskState] = {}
        self._pending: list[_TaskState] = []
        self._unfinished: set[_TaskState] = set()
        self._heartbeat_pending = False
        self._straggle_originals: dict[int, float] = {}
        if chaos is not None:
            for crash in chaos.crashes:
                self.events.push(crash.time, ("crash", crash.machine_id))
                if crash.recover_at is not None:
                    self.events.push(
                        crash.recover_at, ("recover", crash.machine_id)
                    )
            for episode in chaos.straggles:
                self.events.push(
                    episode.start,
                    ("straggle_on", episode.machine_id, episode.factor),
                )
                self.events.push(
                    episode.end, ("straggle_off", episode.machine_id)
                )

    # -- public API ---------------------------------------------------------

    def run(self, tasks: Sequence[SimTask]) -> tuple[float, list[Assignment]]:
        """Execute one wave to completion (a barrier); returns
        ``(finish_time, assignments)`` for the wave's winning attempts,
        in the greedy planner's longest-processing-time order."""
        states = [
            _TaskState(task=task, order=index)
            for index, task in enumerate(
                sorted(tasks, key=lambda t: (-t.cost, t.label))
            )
        ]
        self._pending = list(states)
        self._unfinished = set(states)
        start = self.clock.now
        if self.config.speculation and states:
            self._schedule_heartbeat()
        self._plan()

        while self._unfinished:
            if not self.events:
                raise SchedulingError(
                    f"executor deadlocked: {len(self._pending)} pending "
                    "tasks, nothing running, and no future events"
                )
            when, payload = self.events.pop()
            self.clock.advance_to(when)
            self._handle(payload)

        finish = max(
            [start] + [s.winner.finish for s in states if s.winner is not None]
        )
        ordered = [s.winner for s in states if s.winner is not None]
        return finish, ordered

    def restore_straggles(self) -> None:
        """Undo straggle episodes still open when execution ended."""
        for machine_id, original in self._straggle_originals.items():
            self.cluster.machine(machine_id).straggle = original
        self._straggle_originals.clear()

    # -- planning -----------------------------------------------------------

    def _plan_base(self) -> list[list[float]]:
        """The projected free-time matrix: idle slots free now, busy ones
        at their running attempt's expected finish, committed ones at the
        tail commitment's finish; invisible machines have no slots."""
        now = self.clock.now
        matrix: list[list[float]] = []
        for machine in self.cluster.machines:
            machine_id = machine.machine_id
            # Plans never target dead machines (the policies' choose()
            # assumes live ones, exactly as the greedy planner did); the
            # undetected-crash window still produces doomed dispatches
            # via commitments made before the crash.
            if not self._visible[machine_id] or not machine.alive:
                matrix.append([])
                continue
            row = []
            for slot_index in range(machine.slots):
                when = now
                attempt = self._running[machine_id][slot_index]
                if attempt is not None:
                    when = max(when, attempt.expected_finish)
                queue = self._queues[machine_id][slot_index]
                if queue:
                    when = max(when, queue[-1].finish)
                row.append(when)
            matrix.append(row)
        return matrix

    def _plan(self) -> None:
        """Greedy list scheduling of pending tasks onto slot queues.

        Tasks in LPT order, each policy's ``choose()`` against the
        evolving free-time matrix; a commitment becomes a timed start
        event, not an immediately final assignment.
        """
        if not self._pending:
            return
        free_times = self._plan_base()
        if not any(free_times):
            if self.events:
                return  # wait for a detection/recovery event to replan
            # All-dead cluster with no way out: let the policy raise
            # exactly as the greedy planner would have.
            self.scheduler.choose(
                self._pending[0].task, free_times, self.cluster
            )
            raise SchedulingError("no schedulable slots")
        for state in sorted(self._pending, key=lambda s: s.order):
            machine_id, slot_index = self.scheduler.choose(
                state.task, free_times, self.cluster
            )
            machine = self.cluster.machine(machine_id)
            task = state.task
            fetched = (
                task.preferred_machine is not None
                and task.preferred_machine != machine_id
            )
            start = free_times[machine_id][slot_index]
            finish = start + self._duration_on(machine, task, fetched)
            free_times[machine_id][slot_index] = finish
            commitment = _Commitment(
                state=state,
                machine_id=machine_id,
                slot_index=slot_index,
                start=start,
                finish=finish,
                fetched=fetched,
            )
            self._queues[machine_id][slot_index].append(commitment)
            self.events.push(start, ("start", commitment))
        self._pending.clear()

    def _replan(self) -> None:
        """Cancel every not-yet-started commitment and plan it afresh
        against the cluster as it looks right now."""
        for machine_queues in self._queues:
            for queue in machine_queues:
                for commitment in queue:
                    commitment.cancelled = True
                    state = commitment.state
                    if (
                        not state.done
                        and not state.cooling
                        and not state.has_live_attempt()
                        and state not in self._pending
                    ):
                        self._pending.append(state)
                queue.clear()
        self._plan()

    def _duration_on(
        self, machine: Machine, task: SimTask, fetched: bool
    ) -> float:
        if machine.alive:
            duration = machine.duration_for(task.cost)
        else:  # undetected-dead machine: the attempt is doomed anyway
            duration = task.cost / (machine.speed * machine.straggle)
        if fetched:
            duration += (
                task.fetch_bytes * self.cluster.config.network_cost_per_byte
            )
        return duration

    # -- attempt lifecycle --------------------------------------------------

    def _begin_attempt(
        self,
        state: _TaskState,
        machine_id: int,
        slot_index: int,
        fetched: bool,
        speculative: bool = False,
    ) -> TaskAttempt:
        machine = self.cluster.machine(machine_id)
        now = self.clock.now
        duration = self._duration_on(machine, state.task, fetched)
        attempt = TaskAttempt(
            task=state.task,
            number=len(state.attempts),
            machine_id=machine_id,
            slot_index=slot_index,
            start=now,
            expected_finish=now + duration,
            epoch=self._epoch[machine_id],
            fetched=fetched,
            speculative=speculative,
            ghost=not machine.alive,
        )
        state.attempts.append(attempt)
        self._owner[attempt] = state
        self.attempt_log.append(attempt)
        self.stats.attempts_started += 1
        if speculative:
            self.stats.speculative_attempts += 1
        if attempt.ghost:
            # Started into the void: no events will ever fire for it; the
            # detection sweep reaps it along with the machine's zombies.
            self._ghosts[machine_id].append(attempt)
            return attempt
        self._running[machine_id][slot_index] = attempt
        if self.chaos is not None and self.chaos.attempt_fails(
            state.task.label, attempt.number
        ):
            fail_at = now + duration * self.chaos.failure_fraction()
            self.events.push(fail_at, ("fail", attempt))
        else:
            self.events.push(attempt.expected_finish, ("finish", attempt))
        return attempt

    # -- event handling -----------------------------------------------------

    def _handle(self, payload: tuple) -> None:
        kind = payload[0]
        if kind == "start":
            self._on_start(payload[1])
        elif kind == "finish":
            self._on_finish(payload[1])
        elif kind == "fail":
            self._on_fail(payload[1])
        elif kind == "retry":
            self._on_retry(payload[1])
        elif kind == "crash":
            self._on_crash(payload[1])
        elif kind == "detect":
            self._on_detect(payload[1], payload[2])
        elif kind == "recover":
            self._on_recover(payload[1])
        elif kind == "heartbeat":
            self._on_heartbeat()
        elif kind == "straggle_on":
            self._on_straggle_on(payload[1], payload[2])
        elif kind == "straggle_off":
            self._on_straggle_off(payload[1])
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown event {kind!r}")

    def _attempt_event_is_stale(self, attempt: TaskAttempt) -> bool:
        machine = self.cluster.machine(attempt.machine_id)
        return (
            attempt.state is not AttemptState.RUNNING
            or not machine.alive
            or attempt.epoch != self._epoch[attempt.machine_id]
        )

    def _release_slot(self, attempt: TaskAttempt) -> None:
        slots = self._running[attempt.machine_id]
        if slots[attempt.slot_index] is attempt:
            slots[attempt.slot_index] = None

    def _on_start(self, commitment: _Commitment) -> None:
        if commitment.cancelled or commitment.state.done:
            return
        machine_id = commitment.machine_id
        slot_index = commitment.slot_index
        queue = self._queues[machine_id][slot_index]
        if commitment in queue:
            queue.remove(commitment)
        occupant = self._running[machine_id][slot_index]
        if (
            occupant is not None
            and occupant.expected_finish <= self.clock.now
            and not self._attempt_event_is_stale(occupant)
        ):
            # Start and predecessor-finish land on the same instant; the
            # finish must be applied first.  Its own queued event becomes
            # a no-op via the state check.
            self._on_finish(occupant)
            if commitment.cancelled or commitment.state.done:
                return
        if self._running[machine_id][slot_index] is not None:
            # The plan went stale (e.g. a zombie still holds the slot):
            # put the task back and replan everything.
            if commitment.state not in self._pending:
                self._pending.append(commitment.state)
            self._replan()
            return
        self._begin_attempt(
            commitment.state, machine_id, slot_index, commitment.fetched
        )

    def _record_attempt(self, attempt: TaskAttempt) -> None:
        """Emit a terminal attempt into the telemetry backbone, on its
        machine/slot trace lane with simulated-clock timestamps."""
        if self.telemetry is None or attempt.finish is None:
            return
        self.telemetry.record_span(
            f"{attempt.task.label}#{attempt.number}",
            SpanKind.ATTEMPT,
            start=attempt.start,
            end=attempt.finish,
            thread=f"m{attempt.machine_id}.s{attempt.slot_index}",
            task_kind=attempt.task.kind,
            state=attempt.state.value,
            speculative=attempt.speculative,
            ghost=attempt.ghost,
        )
        self.telemetry.count(
            f"executor.attempts.{attempt.state.value}", ts=attempt.finish
        )

    def _on_finish(self, attempt: TaskAttempt) -> None:
        if self._attempt_event_is_stale(attempt):
            return  # zombie on a crashed machine; the detect sweep reaps it
        now = self.clock.now
        attempt.state = AttemptState.FINISHED
        attempt.finish = now
        self._record_attempt(attempt)
        self._release_slot(attempt)
        self.stats.attempts_finished += 1
        state = self._owner[attempt]
        if state.done:
            return
        state.done = True
        self._unfinished.discard(state)
        if attempt.speculative:
            self.stats.speculative_wins += 1
        state.winner = Assignment(
            task=state.task,
            machine_id=attempt.machine_id,
            start=attempt.start,
            finish=now,
            fetched=attempt.fetched,
        )
        # First finish wins: kill the losing sibling attempts and hand
        # their slots to whoever the planner now prefers.
        killed = False
        for sibling in state.attempts:
            if sibling is attempt or sibling.state is not AttemptState.RUNNING:
                continue
            sibling.state = AttemptState.KILLED
            sibling.finish = now
            self._record_attempt(sibling)
            if not sibling.ghost:
                self._release_slot(sibling)
            self.stats.speculative_waste += max(0.0, now - sibling.start)
            killed = True
        if killed:
            self._replan()
