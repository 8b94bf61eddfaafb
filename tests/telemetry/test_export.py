"""Chrome trace export: schema round-trip and validation gates."""

import json

import pytest

from repro.telemetry import (
    Phase,
    SpanKind,
    Telemetry,
    TraceValidationError,
    to_chrome_trace,
    validate_trace_events,
    write_chrome_trace,
)
from repro.telemetry.export import REQUIRED_FIELDS, TIME_SCALE


def sample_telemetry() -> Telemetry:
    t = Telemetry(label="sample")
    with t.span("initial", SpanKind.WINDOW_UPDATE, run_index=0):
        with t.span("map", SpanKind.PHASE):
            t.charge(Phase.MAP, 2.0)
        with t.span("reduce", SpanKind.PHASE):
            t.charge(Phase.REDUCE, 1.0)
    t.record_span(
        "map:0#0", SpanKind.ATTEMPT, start=0.0, end=1.5, thread="m0.s0"
    )
    t.count("cache.memory_reads", ts=0.5)
    t.instant("executor.crash", ts=1.0, machine=3)
    return t


def test_round_trip_preserves_required_fields(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(sample_telemetry(), str(path))
    trace = json.loads(path.read_text())

    events = trace["traceEvents"]
    assert validate_trace_events(trace) == len(events)
    for event in events:
        for fld in REQUIRED_FIELDS[event["ph"]]:
            assert fld in event, (event["name"], fld)

    complete = [e for e in events if e["ph"] == "X"]
    names = {e["name"] for e in complete}
    assert {"initial", "map", "reduce", "map:0#0"} <= names
    attempt = next(e for e in complete if e["name"] == "map:0#0")
    assert attempt["ts"] == 0.0
    assert attempt["dur"] == 1.5 * TIME_SCALE
    assert isinstance(attempt["pid"], int)
    assert isinstance(attempt["tid"], int)

    # Counter and instant events rode along.
    assert any(e["ph"] == "C" for e in events)
    assert any(e["ph"] == "i" for e in events)
    # The attempt's machine lane got a thread_name metadata record.
    lanes = [
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    assert "m0.s0" in lanes


def test_span_durations_scale_with_work():
    t = sample_telemetry()
    trace = to_chrome_trace(t)
    map_event = next(
        e for e in trace["traceEvents"] if e.get("name") == "map"
    )
    assert map_event["dur"] == 2.0 * TIME_SCALE
    assert map_event["args"]["work"] == {"map": 2.0}


def test_export_refuses_unclosed_spans():
    t = Telemetry(label="x")
    t.open_span("dangling", SpanKind.PHASE)
    with pytest.raises(TraceValidationError, match="unclosed"):
        to_chrome_trace(t)


def test_validation_rejects_missing_fields_and_bad_timestamps():
    good = to_chrome_trace(sample_telemetry())
    validate_trace_events(good)

    missing = json.loads(json.dumps(good))
    del missing["traceEvents"][-1]["ts"]
    with pytest.raises(TraceValidationError, match="missing"):
        validate_trace_events(missing)

    negative = json.loads(json.dumps(good))
    for event in negative["traceEvents"]:
        if event["ph"] == "X":
            event["dur"] = -1.0
            break
    with pytest.raises(TraceValidationError, match="bad dur"):
        validate_trace_events(negative)

    with pytest.raises(TraceValidationError, match="empty"):
        validate_trace_events({"traceEvents": []})

    unknown = json.loads(json.dumps(good))
    unknown["traceEvents"][-1]["ph"] = "Q"
    with pytest.raises(TraceValidationError, match="unknown ph 'Q'"):
        validate_trace_events(unknown)

    with pytest.raises(TraceValidationError, match="not JSON-serialisable"):
        validate_trace_events({"traceEvents": [{"ph": "X", "args": {1j}}]})


def test_by_phase_summary_in_other_data():
    trace = to_chrome_trace(sample_telemetry())
    assert trace["otherData"]["by_phase"] == {"map": 2.0, "reduce": 1.0}
    assert trace["otherData"]["counters"]["cache.memory_reads"] == 1.0
