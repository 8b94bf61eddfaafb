"""Cross-process telemetry capture and deterministic merge.

The multi-process execution backend runs each reducer's contraction in a
worker process with its own fresh :class:`~repro.telemetry.Telemetry`.
For the run to stay *bit-identical* to an in-process execution, the
parent must end up with the same span tree, the same per-phase float
totals, and the same counters it would have built itself.  Floats make
this subtle: addition order matters.  The contract here is:

* Workers record through :class:`CaptureTelemetry`, which keeps an
  **ordered event log** (charges, counts, gauges, instants) alongside
  the normal span tree.
* The parent replays each worker's log — in reducer order, inside the
  span that would have enclosed the work in-process — via
  :func:`replay_events`.  Charges go through
  :meth:`~repro.telemetry.Telemetry.absorb_charge`, so every open parent
  span sees the exact float-addition sequence of an in-process run,
  while the worker's own spans (grafted by :func:`graft_spans` with
  their cursor timestamps shifted to the parent clock) keep the
  self-work.
* Counters are pure sums, so :func:`merge_counters` is associative and
  order-independent — the property the cross-process tests pin down.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.telemetry.spans import NullTelemetry, Phase, Span, Telemetry

__all__ = [
    "CaptureTelemetry",
    "graft_spans",
    "merge_counters",
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

        ("charge",  Phase, amount)
        ("count",   name, delta)
        ("gauge",   name, value)
        ("instant", name, {args})
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

    def gauge(self, name: str, value: float, ts: float | None = None) -> None:
        super().gauge(name, value, ts)
        self.events.append(("gauge", name, value))

    def instant(self, name: str, ts: float | None = None, **args: Any) -> None:
        super().instant(name, ts, **args)
        self.events.append(("instant", name, args))


def replay_events(telemetry: Telemetry, events: Iterable[TelemetryEvent]) -> None:
    """Replay a captured event log into ``telemetry`` at its cursor.

    Charges are absorbed (inclusive work + cursor only — the grafted
    worker spans carry the self-work); counts, gauges, and instants go
    through the normal verbs, picking up the parent's work cursor as
    their timestamp.  Because charges and counter bumps replay in their
    original interleaving, those timestamps match what an in-process run
    would have recorded.
    """
    for event in events:
        verb = event[0]
        if verb == "charge":
            telemetry.absorb_charge(event[1], event[2])
        elif verb == "count":
            telemetry.count(event[1], event[2])
        elif verb == "gauge":
            telemetry.gauge(event[1], event[2])
        elif verb == "instant":
            telemetry.instant(event[1], **event[2])
        else:  # pragma: no cover - wire-format guard
            raise ValueError(f"unknown telemetry event verb {verb!r}")


def _shift(span: Span, offset: float) -> None:
    span.start += offset
    if span.end is not None:
        span.end += offset
    for child in span.children:
        _shift(child, offset)


def graft_spans(
    telemetry: Telemetry, spans: Iterable[Span], offset: float
) -> None:
    """Attach worker spans under the current span, shifted to parent time.

    Worker span timestamps are positions on the worker's own work
    cursor, which started at zero; ``offset`` is the parent's cursor
    when the merge began, so after shifting, the grafted spans occupy
    exactly the interval the replayed charges advance the parent cursor
    through — the same coordinates an in-process run would have given
    them.  The spans are adopted in place (the parent owns the
    unpickled copies), not duplicated.

    A null recorder discards span structure by contract, so grafting
    into one is a no-op — the replayed charges already carried the
    accounting totals through :meth:`absorb_charge`.
    """
    if isinstance(telemetry, NullTelemetry):
        return
    for span in spans:
        _shift(span, offset)
        telemetry.attach(span)


def merge_counters(
    parts: Iterable[Mapping[str, float]],
) -> dict[str, float]:
    """Sum counter dicts; associative and order-independent by construction.

    Integer-valued counters merge exactly; float-valued counters are
    order-independent only up to float associativity, which is why the
    substrate's cross-process counters are all integer counts.
    """
    merged: dict[str, float] = {}
    for part in parts:
        for name, value in part.items():
            merged[name] = merged.get(name, 0) + value
    return merged
