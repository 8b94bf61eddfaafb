"""Unit tests for the span tree and the charge-propagation contract."""

import pytest

from repro.telemetry import (
    NullTelemetry,
    Phase,
    SpanKind,
    Telemetry,
)


def test_charge_propagates_to_every_open_span():
    t = Telemetry(label="x")
    with t.span("update", SpanKind.WINDOW_UPDATE):
        with t.span("map", SpanKind.PHASE):
            t.charge(Phase.MAP, 3.0)
        with t.span("reduce", SpanKind.PHASE):
            t.charge(Phase.REDUCE, 2.0)
    update = t.root.children[0]
    assert t.root.work == {Phase.MAP: 3.0, Phase.REDUCE: 2.0}
    assert update.work == {Phase.MAP: 3.0, Phase.REDUCE: 2.0}
    assert update.children[0].work == {Phase.MAP: 3.0}
    assert update.children[1].work == {Phase.REDUCE: 2.0}


def test_self_work_lands_only_on_innermost_span():
    t = Telemetry(label="x")
    with t.span("outer", SpanKind.PHASE):
        t.charge(Phase.MAP, 1.0)
        with t.span("inner", SpanKind.TASK):
            t.charge(Phase.MAP, 5.0)
    outer = t.root.children[0]
    inner = outer.children[0]
    assert outer.self_work == {Phase.MAP: 1.0}
    assert inner.self_work == {Phase.MAP: 5.0}
    assert outer.work == {Phase.MAP: 6.0}


def test_work_cursor_is_cumulative_charge():
    t = Telemetry(label="x")
    assert t.now() == 0.0
    t.charge(Phase.MAP, 2.5)
    t.charge(Phase.REDUCE, 1.5)
    assert t.now() == 4.0


def test_span_start_end_follow_cursor():
    t = Telemetry(label="x")
    t.charge(Phase.MAP, 1.0)
    with t.span("s", SpanKind.PHASE):
        t.charge(Phase.MAP, 3.0)
    span = t.root.children[0]
    assert span.start == 1.0
    assert span.end == 4.0
    assert span.duration() == 3.0


def test_out_of_order_close_raises():
    t = Telemetry(label="x")
    outer = t.open_span("outer", SpanKind.PHASE)
    t.open_span("inner", SpanKind.TASK)
    with pytest.raises(RuntimeError):
        t.close_span(outer)


def test_negative_charge_rejected():
    with pytest.raises(ValueError):
        Telemetry(label="x").charge(Phase.MAP, -0.1)


@pytest.mark.parametrize("amount", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("method", ["charge", "absorb_charge", "null-charge"])
def test_a_charge_that_is_not_finite_is_rejected(method, amount):
    """One NaN or infinite charge would make every open span's work and
    ``total()`` NaN or infinite for the rest of the run."""
    t = NullTelemetry() if method == "null-charge" else Telemetry(label="x")
    charge = t.charge if method == "null-charge" else getattr(t, method)
    charge(Phase.MAP, 2.0)
    with pytest.raises(ValueError, match="work must be non-negative"):
        charge(Phase.MAP, amount)
    assert t.by_phase == {Phase.MAP: 2.0} and t.total() == 2.0
    assert t.now() == 2.0


def test_record_span_is_preclosed_on_named_thread():
    t = Telemetry(label="x")
    span = t.record_span(
        "map:1#0", SpanKind.ATTEMPT, start=2.0, end=5.0, thread="m3.s1", ghost=False
    )
    assert not span.is_open
    assert span.thread == "m3.s1"
    assert span.attrs["ghost"] is False
    assert t.unclosed_spans() == []


def test_counters_and_instants():
    t = Telemetry(label="x")
    t.count("cache.hits")
    t.count("cache.hits", delta=2.0)
    t.gauge("queue.depth", 7.0, ts=1.0)
    t.instant("crash", ts=3.0, machine=2)
    assert t.counters["cache.hits"] == 3.0
    assert t.counters["queue.depth"] == 7.0
    assert [s[0] for s in t.counter_samples] == [
        "cache.hits",
        "cache.hits",
        "queue.depth",
    ]
    assert t.instants[0]["name"] == "crash"
    assert t.instants[0]["args"]["machine"] == 2


def test_snapshot_is_frozen_view():
    t = Telemetry(label="snap")
    with t.span("u", SpanKind.WINDOW_UPDATE):
        t.charge(Phase.MAP, 2.0)
    t.count("c")
    snap = t.snapshot()
    assert snap.label == "snap"
    assert snap.by_phase == {"map": 2.0}
    assert snap.counters == {"c": 1.0}
    assert snap.span_count >= 2
    assert snap.unclosed_spans == 0


def test_adopt_grafts_without_recharging():
    child = Telemetry(label="child")
    with child.span("batch", SpanKind.WINDOW_UPDATE):
        child.charge(Phase.MAP, 4.0)
    parent = Telemetry(label="parent")
    parent.charge(Phase.REDUCE, 1.0)
    grafted = parent.adopt(child, name="run-0")
    # The grafted subtree is visible but the parent's accounting is not
    # re-charged: child work stays attributed to the child tree only.
    assert parent.by_phase == {Phase.REDUCE: 1.0}
    assert grafted in parent.root.children
    names = [s.name for s in parent.iter_spans()]
    assert "batch" in names


def test_null_telemetry_accounts_but_records_nothing():
    t = NullTelemetry(label="off")
    with t.span("u", SpanKind.WINDOW_UPDATE):
        t.charge(Phase.MAP, 2.0)
    t.count("cache.hits")
    t.instant("crash")
    t.record_span("a", SpanKind.ATTEMPT, start=0.0, end=1.0)
    assert t.by_phase == {Phase.MAP: 2.0}
    assert t.now() == 2.0
    assert t.root.children == []
    assert t.counters == {}
    assert t.instants == []


def test_null_telemetry_span_verbs_are_no_ops():
    t, other = NullTelemetry(label="off"), Telemetry(label="worker")
    with other.span("w", SpanKind.TASK):
        other.charge(Phase.MAP, 1.0)
    span = t.open_span("u", SpanKind.WINDOW_UPDATE)
    assert span is t.root
    t.close_span(span)
    assert t.adopt(other, name="w") is None
    t.attach(other.root.children[0])
    t.gauge("queue.depth", 3.0)
    assert t.root.children == [] and t.counters == {} and t.by_phase == {}


def test_null_and_full_telemetry_by_phase_identical():
    charges = [(Phase.MAP, 0.1), (Phase.MAP, 0.7), (Phase.REDUCE, 1e-9)] * 50
    full, null = Telemetry(label="a"), NullTelemetry(label="b")
    for phase, amount in charges:
        with full.span("s", SpanKind.TASK):
            full.charge(phase, amount)
        with null.span("s", SpanKind.TASK):
            null.charge(phase, amount)
    assert full.by_phase == null.by_phase
