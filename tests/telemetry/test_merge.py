"""Cross-process merge properties: stats, counters, and span forests.

The process backend's bit-identity claim rests on three merge laws:

* :meth:`MemoStats.absorb` / :meth:`MemoStats.merge` — integer sums, so
  associative and order-independent;
* :func:`merge_counters` — same, for telemetry counters;
* event replay — a parent that replays each worker's ordered charge log
  (worker by worker) performs *exactly* the float additions a single
  process interleaving the same charges would, so per-phase totals are
  bit-identical, not merely close.  The hypothesis test drives that over
  random span forests with adversarial float amounts.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memo import MemoStats
from repro.metrics import Phase
from repro.telemetry import (
    CaptureTelemetry,
    SpanKind,
    Telemetry,
    graft_spans,
    merge_counters,
    replay_events,
)
from repro.telemetry.export import TraceValidationError, to_chrome_trace

# -- MemoStats ---------------------------------------------------------------

stats_records = st.builds(
    MemoStats,
    hits=st.integers(0, 1000),
    misses=st.integers(0, 1000),
    evictions=st.integers(0, 100),
    corruptions=st.integers(0, 10),
    skipped_stores=st.integers(0, 10),
)


@given(st.lists(stats_records, min_size=0, max_size=6))
def test_memo_stats_merge_is_order_independent(parts):
    merged = MemoStats.merge(parts)
    shuffled = list(parts)
    random.Random(7).shuffle(shuffled)
    assert MemoStats.merge(shuffled) == merged


@given(a=stats_records, b=stats_records, c=stats_records)
def test_memo_stats_merge_is_associative(a, b, c):
    import copy

    left = MemoStats.merge(
        [MemoStats.merge([copy.copy(a), copy.copy(b)]), copy.copy(c)]
    )
    right = MemoStats.merge(
        [copy.copy(a), MemoStats.merge([copy.copy(b), copy.copy(c)])]
    )
    assert left == right


def test_memo_stats_absorb_returns_self_and_sums():
    a = MemoStats(hits=2, misses=3)
    out = a.absorb(MemoStats(hits=5, evictions=1))
    assert out is a
    assert a == MemoStats(hits=7, misses=3, evictions=1)


# -- merge_counters ----------------------------------------------------------

counter_dicts = st.dictionaries(
    st.sampled_from(["memo.hits", "backend.dispatch_runs", "gc.dropped"]),
    st.integers(0, 10_000).map(float),
    max_size=3,
)


@given(st.lists(counter_dicts, min_size=0, max_size=6))
def test_merge_counters_order_independent(parts):
    merged = merge_counters(parts)
    shuffled = list(parts)
    random.Random(11).shuffle(shuffled)
    assert merge_counters(shuffled) == merged
    # Totals are plain sums per name.
    for name, value in merged.items():
        assert value == sum(part.get(name, 0) for part in parts)


@given(a=counter_dicts, b=counter_dicts, c=counter_dicts)
def test_merge_counters_associative(a, b, c):
    assert merge_counters([merge_counters([a, b]), c]) == merge_counters(
        [a, merge_counters([b, c])]
    )


# -- span-forest replay ------------------------------------------------------

#: Adversarial float amounts: spread magnitudes so addition order matters
#: (1e16 + 1.0 + ... loses bits differently under re-association).
amounts = st.floats(
    min_value=0.0, max_value=1e16, allow_nan=False, allow_infinity=False
)

#: One worker's program: open/close random spans, charge random phases.
#: ("span", depth-delta) interleaved with ("charge", phase, amount).
worker_programs = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.sampled_from(["a", "b", "c"])),
        st.just(("close",)),
        st.tuples(
            st.just("charge"),
            st.sampled_from([Phase.CONTRACTION, Phase.MEMO_READ, Phase.MAP]),
            amounts,
        ),
        st.tuples(st.just("count"), st.sampled_from(["x", "y"])),
    ),
    max_size=30,
)


def _run_worker(program, close_all=True):
    """Execute one program in a fresh capturing recorder (the worker side)."""
    telemetry = CaptureTelemetry(label="worker")
    depth = 0
    open_spans = []
    for op in program:
        if op[0] == "open":
            open_spans.append(telemetry.open_span(op[1], SpanKind.TASK))
            depth += 1
        elif op[0] == "close":
            if open_spans:
                telemetry.close_span(open_spans.pop())
                depth -= 1
        elif op[0] == "charge":
            telemetry.charge(op[1], op[2])
        else:
            telemetry.count(op[1])
    while close_all and open_spans:
        telemetry.close_span(open_spans.pop())
    return telemetry


@settings(max_examples=60, deadline=None)
@given(programs=st.lists(worker_programs, min_size=1, max_size=4))
def test_replayed_forest_totals_bit_identical_to_single_process(programs):
    """Parent replay of N worker logs == one process doing all the work."""
    workers = [_run_worker(program) for program in programs]

    # Single-process reference: the same charges in the same (worker by
    # worker, then program-order) sequence, on one recorder.
    reference = Telemetry(label="run")
    for program in programs:
        for op in program:
            if op[0] == "charge":
                reference.charge(op[1], op[2])
            elif op[0] == "count":
                reference.count(op[1])

    # The merge protocol: replay each worker's ordered log, then graft
    # its spans at the parent cursor — in worker order, like the
    # backend's reducer-order merge.
    parent = Telemetry(label="run")
    for worker in workers:
        offset = parent.now()
        replay_events(parent, worker.events)
        graft_spans(parent, worker.root.children, offset)

    assert dict(parent.by_phase) == dict(reference.by_phase)
    for phase, total in reference.by_phase.items():
        # Bit-identical, not approximately equal.
        assert math.copysign(1, parent.by_phase[phase]) == math.copysign(
            1, total
        )
        assert parent.by_phase[phase].hex() == total.hex()
    assert parent.counters == reference.counters
    # The grafted forest preserves every worker span (same shape count).
    assert parent.span_count() == 1 + sum(
        worker.span_count() - 1 for worker in workers
    )
    assert parent.unclosed_spans() == []


@settings(max_examples=30, deadline=None)
@given(programs=st.lists(worker_programs, min_size=1, max_size=3))
def test_grafted_spans_preserve_subtree_work_decomposition(programs):
    """After a graft, every span's inclusive work still bounds its
    children's — absorb_charge adds inclusive work to open parent spans
    without touching their self-work, keeping the decomposition sound."""
    parent = Telemetry(label="run")
    for program in programs:
        worker = _run_worker(program)
        offset = parent.now()
        replay_events(parent, worker.events)
        graft_spans(parent, worker.root.children, offset)

    def check(span):
        for phase in Phase:
            child_sum = sum(
                child.work.get(phase, 0.0) for child in span.children
            )
            slack = 1e-6 * max(1.0, abs(span.work.get(phase, 0.0)))
            assert child_sum <= span.work.get(phase, 0.0) + slack
        for child in span.children:
            check(child)

    check(parent.root)


@settings(max_examples=60, deadline=None)
@given(
    programs=st.lists(worker_programs, min_size=1, max_size=4),
    parent_depth=st.integers(0, 3),
    adopt_last=st.booleans(),
    late_closes=st.integers(0, 3),
)
def test_unclosed_spans_equals_the_full_walk(
    programs, parent_depth, adopt_last, late_closes
):
    """``unclosed_spans`` answers from the open-span stack plus what was
    open in a subtree when it was attached; a walk of every retained span
    must find the same spans, through graft, adopt and record_span, with
    spans left open on either side and foreign ones closed afterwards."""
    parent = Telemetry(label="run")
    for level in range(parent_depth):
        parent.open_span(f"p{level}", SpanKind.PHASE)
    workers = [_run_worker(program, close_all=False) for program in programs]
    for worker in workers[:-1] if adopt_last else workers:
        graft_spans(parent, worker.root.children, parent.now())
    if adopt_last:
        parent.adopt(workers[-1], name="adopted")
    parent.record_span("attempt", SpanKind.ATTEMPT, 0.0, 1.0, thread="m0.s0")
    # A worker may go on to close spans the parent took over while open.
    for worker in workers:
        for _ in range(late_closes):
            if len(worker._stack) > 1:
                worker.close_span(worker.current)

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
