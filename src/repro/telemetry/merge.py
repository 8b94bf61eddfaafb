"""Cross-process telemetry capture and deterministic merge.

The multi-process execution backend runs each reducer's contraction in a
worker process with its own fresh :class:`~repro.telemetry.Telemetry`.
For the run to stay *bit-identical* to an in-process execution, the
parent must end up with the same span tree, the same per-phase float
totals, and the same counters it would have built itself.  Floats make
this subtle: addition order matters.  The contract here is:

* Workers record through :class:`CaptureTelemetry`, which keeps an
  **ordered event log** (charges, counts, gauges, instants).  A worker
  opens no span: what it sweeps is level marks on its run's log.
* The parent replays each worker's log — in reducer order, inside the
  span that would have enclosed the work in-process — via
  :func:`replay_events`, so every open parent span sees the exact
  float-addition sequence of an in-process run.  A charge made outside
  a level mark is the current span's self-work, as in process; one made
  inside a mark is absorbed, because the worker's marks (taken into the
  parent's log by :func:`graft_marks`) carry it in their tallies.
  Counters come back the same way, as replayed ``count`` events.

A reply is the charges, tagged in or out of a mark, then the marks, then
the records.
"""

from __future__ import annotations

from typing import Any, Iterable
from weakref import ref

from repro.telemetry.spans import Phase, Telemetry
from repro.telemetry.worktable import LevelMark

__all__ = [
    "CaptureTelemetry",
    "graft_marks",
    "replay_events",
]

#: One captured event: ``(verb, *payload)`` — see :class:`CaptureTelemetry`.
TelemetryEvent = tuple


class CaptureTelemetry(Telemetry):
    """A telemetry that additionally logs its events in call order.

    The log is the wire format for shipping a worker's accounting back
    to the parent: replaying it reproduces every float addition in its
    original order, which a post-hoc summary (dict of totals) could not.
    Event shapes::

        ("charge",  Phase, amount, in_mark)
        ("count",   name, delta)
        ("gauge",   name, value)
        ("instant", name, {args})
    """

    def __init__(self, label: str = "run") -> None:
        super().__init__(label)
        self.events: list[TelemetryEvent] = []

    def charge(self, phase: Phase, amount: float) -> None:
        super().charge(phase, amount)
        self.events.append(("charge", phase, amount, self._tally is not None))

    def count(self, name: str, delta: float = 1.0, ts: float | None = None) -> None:
        super().count(name, delta, ts)
        self.events.append(("count", name, delta))

    def gauge(self, name: str, value: float, ts: float | None = None) -> None:
        super().gauge(name, value, ts)
        self.events.append(("gauge", name, value))

    def instant(self, name: str, ts: float | None = None, **args: Any) -> None:
        super().instant(name, ts, **args)
        self.events.append(("instant", name, args))


def replay_events(  # analysis: charge-in-caller-span (the reducer's span)
    telemetry: Telemetry, events: Iterable[TelemetryEvent]
) -> None:
    """Replay a captured event log into ``telemetry`` at its cursor.

    A charge made in a level mark is absorbed (inclusive work and cursor
    only: the grafted mark brings its own tally); any other is charged,
    to the current span's self-work as well.  Counts, gauges, and
    instants go through the normal verbs, picking up the parent's work
    cursor as their timestamp.  Because charges and counter bumps replay
    in their original interleaving, those timestamps match what an
    in-process run would have recorded.
    """
    for event in events:
        verb = event[0]
        if verb == "charge":
            if event[3]:
                telemetry.absorb_charge(event[1], event[2])
            else:
                telemetry.charge(event[1], event[2])
        elif verb == "count":
            telemetry.count(event[1], event[2])
        elif verb == "gauge":
            telemetry.gauge(event[1], event[2])
        elif verb == "instant":
            telemetry.instant(event[1], **event[2])
        else:  # pragma: no cover - wire-format guard
            raise ValueError(f"unknown telemetry event verb {verb!r}")


def graft_marks(
    telemetry: Telemetry, marks: Iterable[LevelMark], offset: float, log: Any
) -> None:
    """Take a worker's level marks into ``log``, the parent's run log,
    after its charges are replayed and before its records are appended.

    A mark's record range moves by the records ``log`` holds, and its
    cursor positions by ``offset``, the parent's cursor when the merge
    began: worker positions are on the worker's own cursor, which
    started at zero.  A mark swept under the worker recorder's root moves
    under the current span, after the children that span has: where an
    in-process sweep would have put it.  The marks are adopted in place,
    not duplicated.
    """
    current = telemetry.current
    under = None if current is telemetry.root else ref(current)
    base, at = len(log.records), len(current.children)
    for mark in marks:
        mark.first += base
        mark.last += base
        mark.start += offset
        mark.end += offset
        if mark.span is None:
            mark.span = under
            mark.at += at
        log.marks.append(mark)
