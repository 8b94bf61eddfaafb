"""Cross-process merge properties: a worker's event log and its replay.

The process backend's bit-identity claim rests on event replay: a parent
that replays each worker's ordered charge log (worker by worker) performs
*exactly* the float additions a single process interleaving the same
charges would, so per-phase totals are bit-identical, not merely close.
A worker opens no span, and its level marks stay in its process: their
opens and closes ride the log with their record index, and the parent
opens a mark of its own on each, on its own cursor, so a charge inside
one stays out of the reducer span's self-work and every mark's place is
the in-process one.  Counters ride the same log as ``count`` events.
The hypothesis tests drive that over random programs with adversarial
float amounts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import RunLog
from repro.metrics import Phase
from repro.telemetry import (
    CaptureTelemetry,
    LevelMark,
    SpanKind,
    Telemetry,
    replay_events,
)
from repro.telemetry.export import TraceValidationError, to_chrome_trace

#: Adversarial float amounts: spread magnitudes so addition order matters
#: (1e16 + 1.0 + ... loses bits differently under re-association).
amounts = st.floats(
    min_value=0.0, max_value=1e16, allow_nan=False, allow_infinity=False
)

charges = st.tuples(
    st.just("charge"),
    st.sampled_from([Phase.CONTRACTION, Phase.MEMO_READ, Phase.MAP]),
    amounts,
)
counts = st.tuples(st.just("count"), st.sampled_from(["x", "y"]))

# -- a worker's replayed log ---------------------------------------------------

#: One reducer's program as a tree runs it: charges and counts, some of
#: them inside a level mark ("mark" opens one, or closes the open one).
reducer_programs = st.lists(
    st.one_of(st.tuples(st.just("mark"), st.sampled_from(["fold", "rot"])),
              charges, counts),
    max_size=30,
)


def _execute(telemetry, log, program):
    """Run ``program`` on ``telemetry`` and ``log``; a charge logs one
    record, as a node does."""
    mark, level = None, 0
    for op in program:
        if op[0] == "mark":
            if mark is None:
                level += 1
                mark = LevelMark(telemetry, log, op[1], level)
                mark.__enter__()
            else:
                mark.__exit__(None, None, None)
                mark = None
        elif op[0] == "charge":
            telemetry.charge(op[1], op[2])
            log.records.append(
                ("combine", op[1], "n", op[2], 1, False, 0, None, 1, (), (), None)
            )
        else:
            telemetry.count(op[1])
    if mark is not None:
        mark.__exit__(None, None, None)


def _spans(telemetry):
    return [
        (span.name, span.start, span.end,
         sorted((p.value, v.hex()) for p, v in span.work.items()),
         sorted((p.value, v.hex()) for p, v in span.self_work.items()))
        for span in telemetry.iter_spans()
    ]


def _marks(log):
    """A mark's place and cursor positions; its work is its records'."""
    return [
        (mark.tree, mark.level, mark.first, mark.last, mark.start.hex(),
         mark.end.hex(), mark.span().name, mark.at)
        for mark in log.marks
    ]


def _merge(parent, parent_log, programs, before=None):
    """The merge protocol, in reducer order: a worker runs the program at
    its recorder's root; the parent replays its events and records inside
    the reducer's span (``before`` first, in that span, if given)."""
    for r, program in enumerate(programs):
        worker, worker_log = CaptureTelemetry(label="worker"), RunLog()
        _execute(worker, worker_log, program)
        assert worker.span_count() == 1
        with parent.span(f"reducer:{r}", SpanKind.TASK):
            if before is not None:
                before(parent)
            replay_events(parent, worker.events, parent_log, worker_log.records)


@settings(max_examples=60, deadline=None)
@given(programs=st.lists(reducer_programs, min_size=1, max_size=4))
def test_replayed_forest_totals_bit_identical_to_single_process(programs):
    """Parent replay of N worker logs == one process doing all the work:
    totals, counters, every span's work and self-work, every mark's
    place and cursor positions, bit for bit."""
    # Single-process reference: each reducer's program inside its span.
    reference, reference_log = Telemetry(label="run"), RunLog()
    for r, program in enumerate(programs):
        with reference.span(f"reducer:{r}", SpanKind.TASK):
            _execute(reference, reference_log, program)

    parent, parent_log = Telemetry(label="run"), RunLog()
    _merge(parent, parent_log, programs)

    assert {p: v.hex() for p, v in parent.by_phase.items()} == {
        p: v.hex() for p, v in reference.by_phase.items()
    }
    assert parent.counters == reference.counters
    assert _spans(parent) == _spans(reference)
    assert _marks(parent_log) == _marks(reference_log)
    assert parent_log.records == reference_log.records
    assert parent.unclosed_spans() == []


def test_a_dispatched_marks_cursor_is_the_in_process_one():
    """A parent cursor far above the worker's: in process, each ``1.0``
    charged at ``2**53`` rounds away, so the mark opens and closes at
    ``2**53``; the worker's own close, ``2.0``, shifted by the parent's
    cursor would read ``2**53 + 2.0``.  A mark opened on the parent's
    cursor reads what the in-process one does."""
    program = [("charge", Phase.MAP, 1.0), ("mark", "fold"),
               ("charge", Phase.CONTRACTION, 1.0), ("mark", "fold")]

    def lift(telemetry):
        telemetry.charge(Phase.SHUFFLE, 2.0**53)

    reference, reference_log = Telemetry(label="run"), RunLog()
    with reference.span("reducer:0", SpanKind.TASK):
        lift(reference)
        _execute(reference, reference_log, program)
    parent, parent_log = Telemetry(label="run"), RunLog()
    _merge(parent, parent_log, [program], before=lift)

    [mark] = reference_log.marks
    assert (mark.start, mark.end) == (2.0**53, 2.0**53)
    assert _marks(parent_log) == _marks(reference_log)
    assert _spans(parent) == _spans(reference)


# -- subtrees built elsewhere ----------------------------------------------------

#: A recorder's program: open/close random spans, charge random phases.
span_programs = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.sampled_from(["a", "b", "c"])),
        st.just(("close",)),
        charges,
        counts,
    ),
    max_size=30,
)


def _build(program, close_all=True):
    """Execute one program in a fresh recorder, built apart from the one
    that takes its tree over."""
    telemetry = Telemetry(label="elsewhere")
    open_spans = []
    for op in program:
        if op[0] == "open":
            open_spans.append(telemetry.open_span(op[1], SpanKind.TASK))
        elif op[0] == "close":
            if open_spans:
                telemetry.close_span(open_spans.pop())
        elif op[0] == "charge":
            telemetry.charge(op[1], op[2])
        else:
            telemetry.count(op[1])
    while close_all and open_spans:
        telemetry.close_span(open_spans.pop())
    return telemetry


@settings(max_examples=60, deadline=None)
@given(
    programs=st.lists(span_programs, min_size=1, max_size=4),
    parent_depth=st.integers(0, 3),
    late_closes=st.integers(0, 3),
)
def test_unclosed_spans_equals_the_full_walk(programs, parent_depth, late_closes):
    """``unclosed_spans`` answers from the open-span stack plus what was
    open in a subtree when it was adopted; a walk of every retained span
    must find the same spans, through adopt and record_span, with spans
    left open on either side and adopted ones closed afterwards."""
    parent = Telemetry(label="run")
    for level in range(parent_depth):
        parent.open_span(f"p{level}", SpanKind.PHASE)
    others = [_build(program, close_all=False) for program in programs]
    for other in others:
        parent.adopt(other, name="adopted")
    parent.record_span("attempt", SpanKind.ATTEMPT, 0.0, 1.0, thread="m0.s0")
    # The other recorder may go on to close spans the parent took over.
    for other in others:
        for _ in range(late_closes):
            if len(other._stack) > 1:
                other.close_span(other.current)

    walked = [
        s for s in parent.root.iter() if s.is_open and s is not parent.root
    ]
    answered = parent.unclosed_spans()
    assert sorted(map(id, answered)) == sorted(map(id, walked))
    assert parent.snapshot().unclosed_spans == len(walked)
    if walked:
        with pytest.raises(TraceValidationError, match=f"^{len(walked)} unclosed"):
            to_chrome_trace(parent)
    else:
        to_chrome_trace(parent)
