"""Cross-process telemetry capture and deterministic merge.

The multi-process execution backend runs each reducer's contraction in a
worker process with its own fresh :class:`~repro.telemetry.Telemetry`.
For the run to stay *bit-identical* to an in-process execution, the
parent must end up with the same span tree, the same per-phase float
totals, the same level marks and the same counters it would have built
itself.  Floats make this subtle: addition order matters.  The contract
here is:

* Workers record through :class:`CaptureTelemetry`, which keeps an
  **ordered event log** (charges, counts, instants, and each level
  mark's open and close with its record index).  A worker opens no
  span, and its marks stay in its process.
* The parent replays each worker's log — in reducer order, inside the
  span that would have enclosed the work in-process — via
  :func:`replay_events`, so every open parent span sees the exact
  float-addition sequence of an in-process run.  It opens and closes a
  mark of its own where the worker did, on its own cursor, log and
  current span, so a charge inside it stays out of the span's
  self-work and the mark's positions are the in-process ones, exactly.
  Counters come back the same way, as replayed ``count`` events.

A reply is the events, then the records.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.telemetry.spans import Phase, Telemetry
from repro.telemetry.worktable import LevelMark

__all__ = [
    "CaptureTelemetry",
    "replay_events",
]

#: One captured event: ``(verb, *payload)`` — see :class:`CaptureTelemetry`.
TelemetryEvent = tuple


class CaptureTelemetry(Telemetry):
    """A telemetry that additionally logs its events in call order.

    The log is the wire format for shipping a worker's accounting back
    to the parent: replaying it reproduces every float addition in its
    original order, which a post-hoc summary (dict of totals) could not.
    Event shapes (``first`` / ``last``: the mark's record range in the
    worker's run log)::

        ("charge",  Phase, amount)
        ("count",   name, delta)
        ("instant", name, {args})
        ("open",    tree, level, first)
        ("close",   last)
    """

    def __init__(self, label: str = "run") -> None:
        super().__init__(label)
        self.events: list[TelemetryEvent] = []

    def charge(self, phase: Phase, amount: float) -> None:
        super().charge(phase, amount)
        self.events.append(("charge", phase, amount))

    def count(self, name: str, delta: float = 1.0, ts: float | None = None) -> None:
        super().count(name, delta, ts)
        self.events.append(("count", name, delta))

    def instant(self, name: str, ts: float | None = None, **args: Any) -> None:
        super().instant(name, ts, **args)
        self.events.append(("instant", name, args))

    def enter_mark(self, mark: LevelMark) -> None:
        super().enter_mark(mark)
        self.events.append(("open", mark.tree, mark.level, mark.first))

    def exit_mark(self, mark: LevelMark) -> None:
        super().exit_mark(mark)
        self.events.append(("close", mark.last))


def replay_events(  # analysis: charge-in-caller-span (the reducer's span)
    telemetry: Telemetry,
    events: Iterable[TelemetryEvent],
    log: Any,
    records: list,
) -> None:
    """Replay a worker's captured event log into ``telemetry`` at its
    cursor, and its run's ``records`` into ``log``, the parent's run log.

    Charges, counts and instants go through the normal verbs, picking up
    the parent's work cursor as their timestamp; because they replay in
    their original interleaving, those timestamps match what an
    in-process run would have recorded.  Before a mark opens or closes,
    ``log`` takes the records the worker had logged by then, so the
    parent's mark opens on the record index, cursor and current span an
    in-process sweep would have read.  The rest of the records follow.
    """
    taken = 0
    mark: Any = None
    for event in events:
        verb = event[0]
        if verb == "charge":
            telemetry.charge(event[1], event[2])
        elif verb == "count":
            telemetry.count(event[1], event[2])
        elif verb == "open":
            log.extend(records[taken:event[3]])
            taken = event[3]
            mark = LevelMark(telemetry, log, event[1], event[2]).__enter__()
        elif verb == "close":
            log.extend(records[taken:event[1]])
            taken = event[1]
            mark.__exit__()
        elif verb == "instant":
            telemetry.instant(event[1], **event[2])
        else:  # pragma: no cover - wire-format guard
            raise ValueError(f"unknown telemetry event verb {verb!r}")
    log.extend(records[taken:])
