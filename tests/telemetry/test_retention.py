"""Retention: the recorder you hand in keeps what you built it to keep;
the one an engine makes for itself is a ring of ``ENGINE_KEEP_LAST``.

The ring drops structure only — every total, report and output is the
same float with and without it.
"""

from __future__ import annotations

import gc

import pytest

from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from repro.telemetry import (
    ENGINE_KEEP_LAST,
    Phase,
    Span,
    SpanKind,
    Telemetry,
    to_chrome_trace,
    validate_trace_events,
)
from tests.oracle.fleet import count_job, split_of

N = ENGINE_KEEP_LAST
WINDOW = 8


def _live_spans() -> int:
    """As ``benchmarks/e2e`` counts them: every ``Span`` alive after a
    full collection, whoever holds it."""
    gc.collect()
    return sum(1 for item in gc.get_objects() if type(item) is Span)


def _run(telemetry: Telemetry | None, halfway=None) -> tuple:
    """10 * N slides; returns the engine's recorder and, per run, what a
    caller sees of it."""
    engine = Slider(
        count_job(), WindowMode.VARIABLE, SliderConfig(), telemetry=telemetry
    )
    seen = []
    try:
        results = [engine.initial_run([split_of(i) for i in range(WINDOW)])]
        for i in range(WINDOW, WINDOW + 10 * N):
            results.append(engine.advance([split_of(i)], 1))
            if halfway is not None and i == WINDOW + 5 * N - 1:
                halfway(engine.telemetry)
        for result in results:
            report = result.report
            seen.append(
                (report.work, report.breakdown, report.space, result.outputs)
            )
    finally:
        engine.close()
    return engine.telemetry, seen


def test_engine_made_recorder_is_a_ring_and_changes_no_number():
    at_half: dict[str, int] = {}

    def halfway(telemetry: Telemetry) -> None:
        at_half["spans"] = _live_spans()
        at_half["samples"] = len(telemetry.counter_samples)
        at_half["instants"] = len(telemetry.instants)

    ring, ring_seen = _run(None, halfway)
    assert ring.keep_last == N
    assert len(ring.root.children) <= N
    assert ring.unclosed_spans() == []
    # Flat over the last half: a recorder that kept everything would have
    # grown by 5 * N window updates' worth of each.
    one_update = max(sum(1 for _ in child.iter()) for child in ring.root.children)
    assert abs(_live_spans() - at_half["spans"]) <= one_update
    assert abs(len(ring.counter_samples) - at_half["samples"]) <= 4
    assert len(ring.instants) == at_half["instants"]
    assert ring.span_count() == 1 + sum(
        sum(1 for _ in child.iter()) for child in ring.root.children
    )
    validate_trace_events(to_chrome_trace(ring))

    kept, kept_seen = _run(Telemetry(label=ring.root.name))
    assert kept.keep_last is None
    assert len(kept.root.children) == 1 + 10 * N
    assert len(kept.counter_samples) > len(ring.counter_samples)
    assert ring.by_phase == kept.by_phase  # the very same floats
    assert list(ring.by_phase) == list(kept.by_phase)
    assert ring.counters == kept.counters
    assert ring.now() == kept.now()
    assert ring_seen == kept_seen
    # The tail the ring kept is the tail of everything.
    assert [child.name for child in ring.root.children] == [
        child.name for child in kept.root.children[-len(ring.root.children) :]
    ]


def test_samples_instants_and_foreign_spans_leave_with_their_span():
    t = Telemetry(label="ring", keep_last=2)
    for index in range(5):
        t.count("before", ts=float(index))  # belongs to the previous span
        with t.span(f"update-{index}", SpanKind.WINDOW_UPDATE):
            t.charge(Phase.MAP, 1.0)
            t.count("inside")
            t.instant("event", index=index)
    assert [child.name for child in t.root.children] == ["update-3", "update-4"]
    assert [event["args"]["index"] for event in t.instants] == [3, 4]
    assert [name for name, _, _ in t.counter_samples] == ["inside", "before", "inside"]
    assert t.counters == {"before": 5.0, "inside": 5.0}
    assert t.by_phase == {Phase.MAP: 5.0}

    # A subtree attached with a span still open in it: reported while it
    # is kept, gone once its subtree is.
    foreign = Telemetry(label="elsewhere")
    foreign.open_span("never-closed", SpanKind.TASK)
    t.attach(foreign.root.children[0])
    assert [span.name for span in t.unclosed_spans()] == ["never-closed"]
    t.record_span("a", SpanKind.ATTEMPT, start=0.0, end=1.0)
    t.record_span("b", SpanKind.ATTEMPT, start=1.0, end=2.0)
    assert [child.name for child in t.root.children] == ["a", "b"]
    assert t.unclosed_spans() == []


def test_keep_last_must_be_positive():
    with pytest.raises(ValueError):
        Telemetry(label="x", keep_last=0)


def test_span_context_closes_on_error_and_refuses_out_of_order():
    t = Telemetry(label="x")
    with pytest.raises(KeyError):
        with t.span("fails", SpanKind.PHASE) as opened:
            assert opened is t.current
            raise KeyError("boom")
    assert not opened.is_open and t.unclosed_spans() == []
    with pytest.raises(RuntimeError, match="out of order"):
        with t.span("outer", SpanKind.PHASE):
            t.open_span("left-open", SpanKind.TASK)
