"""Fault machinery for the wave executor.

A mixin over :class:`~repro.cluster.waveexec.WaveExecutor`'s event loop:
transient-failure retries with exponential backoff, machine-crash
detection via missed heartbeats (reaping zombies and ghosts), recovery,
and straggle episodes.  Split out of :mod:`repro.cluster.waveexec` so the
happy-path planning/attempt loop reads on its own; every handler here
runs inside the same event queue.
"""

from __future__ import annotations

from repro.cluster.exec_types import (
    BACKOFF_BASE,
    HEARTBEAT_TIMEOUT,
    MAX_ATTEMPTS,
    AttemptState,
    TaskAttempt,
    _TaskState,
)
from repro.common.errors import TaskFailedError


class FaultMachineryMixin:
    """Failure, detection, recovery, and straggle event handlers."""

    def _on_fail(self, attempt: TaskAttempt) -> None:
        if self._attempt_event_is_stale(attempt):
            return
        now = self.clock.now
        attempt.state = AttemptState.FAILED
        attempt.finish = now
        self._record_attempt(attempt)
        self._release_slot(attempt)
        self.stats.transient_failures += 1
        self.stats.wasted_work += max(0.0, now - attempt.start)
        self._after_loss(self._owner[attempt])
        # The slot freed earlier than planned; successors can move up.
        self._replan()

    def _after_loss(self, state: _TaskState) -> None:
        """Count a failed/lost attempt; retry with backoff or give up.  The
        task is not done: the attempt lost was its one live attempt."""
        state.failures += 1
        if state.failures >= MAX_ATTEMPTS:
            raise TaskFailedError(state.task.label, state.failures)
        delay = BACKOFF_BASE * 2.0 ** (state.failures - 1)
        self.stats.backoff_delay += delay
        state.cooling = True
        self.events.push(self.clock.now + delay, ("retry", state))

    def _on_retry(self, state: _TaskState) -> None:
        state.cooling = False
        if state not in self._pending:
            self._pending.append(state)
        self._plan()

    def _on_crash(self, machine_id: int) -> None:
        machine = self.cluster.machine(machine_id)
        if not machine.alive:
            return
        self.cluster.kill(machine_id)
        self._epoch[machine_id] += 1
        self.stats.crashes += 1
        if self.telemetry is not None:
            self.telemetry.instant(
                "executor.crash", ts=self.clock.now, machine=machine_id
            )
            self.telemetry.count("executor.crashes", ts=self.clock.now)
        self.events.push(
            self.clock.now + HEARTBEAT_TIMEOUT,
            ("detect", machine_id, self.clock.now),
        )
        if self.hooks.on_crash is not None:
            self.hooks.on_crash(machine_id, self.clock.now)

    def _reap_machine(self, machine_id: int, crash_time: float | None) -> None:
        """Reap attempts stranded on a crashed/restarted machine."""
        machine = self.cluster.machine(machine_id)
        now = self.clock.now
        stranded: list[TaskAttempt] = list(self._ghosts[machine_id])
        self._ghosts[machine_id].clear()
        for slot_index, attempt in enumerate(self._running[machine_id]):
            if attempt is None or attempt.state is not AttemptState.RUNNING:
                continue
            if machine.alive and attempt.epoch == self._epoch[machine_id]:
                continue  # started after the restart; still healthy
            self._running[machine_id][slot_index] = None
            stranded.append(attempt)
        for attempt in stranded:  # each RUNNING: ghosts get no events
            attempt.state = AttemptState.LOST
            attempt.finish = now
            self._record_attempt(attempt)
            self.stats.lost_attempts += 1
            if crash_time is not None:
                self.stats.detection_delay += now - crash_time
                self.stats.wasted_work += max(
                    0.0, crash_time - attempt.start
                )
            self._after_loss(self._owner[attempt])

    def _on_detect(self, machine_id: int, crash_time: float) -> None:
        machine = self.cluster.machine(machine_id)
        self.stats.crashes_detected += 1
        if not machine.alive:
            self._visible[machine_id] = False
        if self.telemetry is not None:
            self.telemetry.instant(
                "executor.detect",
                ts=self.clock.now,
                machine=machine_id,
                crash_time=crash_time,
            )
        self._reap_machine(machine_id, crash_time)
        if self.hooks.on_detect is not None:
            self.hooks.on_detect(machine_id, self.clock.now)
        self._replan()

    def _on_recover(self, machine_id: int) -> None:
        machine = self.cluster.machine(machine_id)
        if machine.alive:
            return
        self.cluster.revive(machine_id)
        self._epoch[machine_id] += 1
        self._visible[machine_id] = True
        self.stats.recoveries += 1
        if self.telemetry is not None:
            self.telemetry.instant(
                "executor.recover", ts=self.clock.now, machine=machine_id
            )
            self.telemetry.count("executor.recoveries", ts=self.clock.now)
        # A restart loses in-flight attempts immediately (the rejoining
        # worker reports no tasks); no detection delay applies.
        self._reap_machine(machine_id, None)
        if self.hooks.on_recover is not None:
            self.hooks.on_recover(machine_id, self.clock.now)
        self._replan()

    def _on_straggle_on(self, machine_id: int, factor: float) -> None:
        machine = self.cluster.machine(machine_id)
        self._straggle_originals.setdefault(machine_id, machine.straggle)
        machine.straggle = factor
        if self.telemetry is not None:
            self.telemetry.instant(
                "executor.straggle_on",
                ts=self.clock.now,
                machine=machine_id,
                factor=factor,
            )
        self._replan()

    def _on_straggle_off(self, machine_id: int) -> None:
        original = self._straggle_originals.pop(machine_id, 1.0)
        self.cluster.machine(machine_id).straggle = original
        if self.telemetry is not None:
            self.telemetry.instant(
                "executor.straggle_off", ts=self.clock.now, machine=machine_id
            )
        self._replan()
