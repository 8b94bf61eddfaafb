"""Chrome trace-event export for telemetry trees.

Writes a :class:`~repro.telemetry.spans.Telemetry` tree as Trace Event
Format JSON (the ``chrome://tracing`` / Perfetto ``traceEvents`` array):

* every span becomes a complete event (``ph: "X"``) with ``ts``/``dur``
  and per-phase work totals in ``args``, and so does every tree level —
  a mark on its run's log, not a span (``cat: "tree_level"``, placed
  among the children of the span it ran under where it was swept) — and
  every node a level covers — a record of the log (``cat: "task"``, laid
  end to end from the level's start in charge order);
* engine spans share one lane per nesting context, cluster spans land on
  their machine/slot lane (``span.thread``), named via ``M`` metadata;
* instant events become ``ph: "i"`` and counter samples ``ph: "C"``, so
  crashes, re-replications, and cache hit counters line up against the
  spans that caused them.

Timestamps are abstract (work units for engine spans, simulated seconds
for cluster spans) and scaled by ``1e6`` so one unit reads as one second
in the viewer.  ``validate_trace_events`` checks the schema invariants
the CI smoke job gates on: parseable JSON, required fields per event
type, no unclosed spans (enforced at export time).

Run ``python -m repro.telemetry.export --out trace.json`` to produce a
trace for one micro-benchmark window-slide run (map + contraction +
reduce spans, executor attempts, cache counters in a single file).
"""

from __future__ import annotations

import json
from typing import Any

from repro.telemetry.spans import Span, Telemetry
from repro.telemetry.worktable import LevelMark, level_work

#: Microseconds per abstract time unit: one work/sim unit reads as 1 s.
TIME_SCALE = 1_000_000.0

#: Required fields per Trace Event Format phase type, as validated here
#: and in the CI smoke job.
REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    "X": ("name", "ph", "ts", "dur", "pid", "tid"),
    "i": ("name", "ph", "ts", "pid", "tid"),
    "C": ("name", "ph", "ts", "pid", "args"),
    "M": ("name", "ph", "pid", "args"),
}

_ENGINE_THREAD = "engine"
#: The trace's one process lane: a trace is one recorder's spans.
_PID = 1


class TraceValidationError(ValueError):
    """The exported trace violates the Chrome trace-event schema."""


def to_chrome_trace(telemetry: Telemetry) -> dict[str, Any]:
    """Render a telemetry tree as a Trace Event Format document.

    The spans, instants and counter samples are those the recorder
    retains (for a ``keep_last`` ring: the last runs, which is the trace
    of what just happened); ``otherData`` carries the whole-life totals.

    Raises :class:`TraceValidationError` if any non-root span is still
    open — an unclosed span means a charge site exited without closing
    its scope, and its timeline would silently render wrong.
    """
    unclosed = telemetry.unclosed_spans()
    if unclosed:
        names = ", ".join(s.name for s in unclosed[:5])
        raise TraceValidationError(
            f"{len(unclosed)} unclosed span(s) at export: {names}"
        )

    events: list[dict[str, Any]] = []
    tids: dict[str, int] = {}

    def tid_for(thread: str) -> int:
        if thread not in tids:
            tids[thread] = len(tids)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _PID,
                    "tid": tids[thread],
                    "args": {"name": thread},
                }
            )
        return tids[thread]

    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "args": {"name": f"repro:{telemetry.root.name}"},
        }
    )

    def complete(
        name: str, cat: str, start: float, end: float, thread: str | None,
        args: dict[str, Any], work: dict, self_work: dict,
    ) -> None:
        if work:
            args["work"] = {p.value: v for p, v in work.items()}
        if self_work:
            args["self_work"] = {p.value: v for p, v in self_work.items()}
        events.append({
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start * TIME_SCALE,
            "dur": (end - start) * TIME_SCALE,
            "pid": _PID,
            "tid": tid_for(thread or _ENGINE_THREAD),
            "args": args,
        })

    def level(mark: LevelMark, log: Any) -> None:
        # A tree level's work is all its nodes': each node is an event of
        # its own, laid end to end from the level's start in charge order.
        attrs = {"tree": mark.tree, "level": mark.level}
        tasks = log.tasks(mark.first, mark.last)
        complete(f"{mark.tree}:L{mark.level}", "tree_level", mark.start,
                 mark.end, None, attrs, level_work(tasks), {})
        cursor = mark.start
        for name, work in tasks:
            start = cursor
            for amount in work.values():
                cursor += amount
            complete(name, "task", start, cursor, None, {}, work, work)

    # Pre-order over the spans, each span's level marks among its
    # children where they were swept.  A span that keeps a log is met
    # before every span its marks ran under.
    root = telemetry.root
    marks_under: dict[int, list[tuple[LevelMark, Any]]] = {}
    stack: list[Span | tuple[LevelMark, Any]] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            level(*item)
            continue
        span = item
        log = span.attrs.get("log")
        if log is not None:
            for mark in log.marks:
                under = root if mark.span is None else mark.span()
                marks_under.setdefault(id(under), []).append((mark, log))
        attrs = {k: v for k, v in span.attrs.items() if _jsonable(v)}
        end = span.end if span.end is not None else telemetry.now()
        complete(span.name, span.kind.value, span.start, end, span.thread,
                 attrs, span.work, span.self_work)
        children: list[Span | tuple[LevelMark, Any]] = list(span.children)
        for mark, log in reversed(marks_under.pop(id(span), ())):
            children.insert(mark.at, (mark, log))
        stack.extend(reversed(children))

    for instant in telemetry.instants:
        events.append(
            {
                "name": instant["name"],
                "cat": "event",
                "ph": "i",
                "s": "p",
                "ts": instant["ts"] * TIME_SCALE,
                "pid": _PID,
                "tid": tid_for(_ENGINE_THREAD),
                "args": {k: v for k, v in instant["args"].items() if _jsonable(v)},
            }
        )

    for name, ts, value in telemetry.counter_samples:
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": ts * TIME_SCALE,
                "pid": _PID,
                "args": {"value": value},
            }
        )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.telemetry",
            "by_phase": {p.value: v for p, v in telemetry.by_phase.items()},
            "counters": dict(telemetry.counters),
        },
    }


def _jsonable(value: Any) -> bool:
    return isinstance(value, (str, int, float, bool, type(None)))


def validate_trace_events(trace: dict[str, Any]) -> int:
    """Check schema invariants; return the number of events.

    Verifies the document round-trips through JSON, that every event
    carries the fields required for its ``ph`` type, and that durations
    and timestamps are finite non-negative numbers.
    """
    try:
        trace = json.loads(json.dumps(trace))
    except (TypeError, ValueError) as exc:
        raise TraceValidationError(f"trace is not JSON-serialisable: {exc}") from exc

    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise TraceValidationError("traceEvents missing or empty")

    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph not in REQUIRED_FIELDS:
            raise TraceValidationError(f"event {i}: unknown ph {ph!r}")
        for fld in REQUIRED_FIELDS[ph]:
            if fld not in event:
                raise TraceValidationError(
                    f"event {i} ({event.get('name')!r}, ph={ph}): missing {fld!r}"
                )
        for fld in ("ts", "dur"):
            if fld in event:
                value = event[fld]
                if not isinstance(value, (int, float)) or value != value or value < 0:
                    raise TraceValidationError(
                        f"event {i} ({event.get('name')!r}): bad {fld}={value!r}"
                    )
    return len(events)


def write_chrome_trace(telemetry: Telemetry, path: str) -> dict[str, Any]:
    """Export, validate, and write a trace; returns the trace document."""
    trace = to_chrome_trace(telemetry)
    validate_trace_events(trace)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return trace


def export_micro_benchmark_trace(
    path: str, app: str = "hct", variant: str = "randomized"
) -> dict[str, Any]:
    """Run one micro-benchmark window slide on a cluster and export it.

    Produces the acceptance-criteria trace: map/contraction/reduce phase
    spans, tree levels and their combiner tasks, executor attempt
    events on machine lanes, and cache counters, all in one file.
    """
    # Imported lazily: the telemetry package must stay import-light so
    # every layer can depend on it without cycles.
    from repro.apps.registry import micro_benchmark_apps
    from repro.cluster.machine import Cluster, ClusterConfig
    from repro.slider.system import Slider, SliderConfig
    from repro.slider.window import WindowMode

    spec = next(s for s in micro_benchmark_apps() if s.name == app)
    telemetry = Telemetry(label=f"{app}/{variant}")
    slider = Slider(
        spec.make_job(),
        WindowMode.VARIABLE,
        config=SliderConfig(mode=WindowMode.VARIABLE, tree=variant),
        cluster=Cluster(
            ClusterConfig(num_machines=8, slots_per_machine=2, seed=42)
        ),
        telemetry=telemetry,
    )
    slider.initial_run(spec.make_splits(8, 17, 0))
    slider.advance(spec.make_splits(2, 17, 8), 2)
    return write_chrome_trace(telemetry, path)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Export one micro-benchmark run as Chrome trace JSON."
    )
    parser.add_argument("--out", default="trace.json", help="output path")
    parser.add_argument("--app", default="hct", help="micro-benchmark app name")
    parser.add_argument("--variant", default="randomized", help="tree variant")
    args = parser.parse_args(argv)

    trace = export_micro_benchmark_trace(args.out, app=args.app, variant=args.variant)
    with open(args.out, encoding="utf-8") as fh:
        count = validate_trace_events(json.load(fh))
    print(f"wrote {args.out}: {count} events, {len(trace['traceEvents'])} emitted")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
