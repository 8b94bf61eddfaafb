"""The telemetry backbone: one span tree per run, shared by every layer.

The paper's evaluation rests on two measures — *work* (sum of task active
times, §7.1) and *time* (simulated makespan) — which this repo previously
computed in three disconnected subsystems: a flat per-phase accumulator, the
task-graph IR's node costs, and the executor's attempt timeline.  This
module unifies them: every run grows a single hierarchical span tree

    run → window-update → phase → task (map task, reducer)
                                → attempt

and all accounting flows through it: a caller charges, opens spans on and
reads :attr:`Telemetry.by_phase` / :meth:`Telemetry.total` off the one
:class:`Telemetry` it holds.  Neither a tree level nor a tree's nodes
(combines, pass-throughs, memo reads, visits) open a span: each node is
one record of the run's log, and each level's sweep is a mark on that
log (:class:`~repro.telemetry.worktable.LevelMark`) — the range of
records it appended and the span it ran under — which the per-level
table and the Chrome trace read; a level's work is its records' costs.
A run's window-update span (or a background phase span) keeps its log,
in ``attrs["log"]`` (:meth:`Telemetry.keep_log`).

Bit-identity contract
---------------------
The seed accumulated work as ``by_phase[p] = by_phase.get(p, 0) + amount``
in charge-call order.  :meth:`Telemetry.charge` adds each amount to *every*
span on the open-span stack, root first — so the root span's inclusive
``work`` dict is built by exactly the same float additions in exactly the
same order as the seed's flat dict, and every historical figure/table
number is unchanged to the last bit.  Intermediate spans inherit the same
property for their own subtrees.  While a level mark is open, a charge
stays out of the current span's ``self_work``: it is a node's, which
the node's record keeps (its cost is the float it charged), so summing
a mark's records by phase in record order repeats the charges'
additions, which is what makes the per-level work table
(:mod:`repro.telemetry.worktable`) exact rather than approximate, and
every span's ``self_work`` leaves out the levels swept under it.

Timestamps
----------
Engine spans (map/contraction/reduce, reducers) and level marks use the
cumulative work counter as a pseudo-clock: a span's duration is the work
charged while it was open.  Cluster spans (executor attempts, replication
events) instead carry simulated-cluster-clock timestamps and are recorded
pre-closed via :meth:`Telemetry.record_span` on their machine's thread
lane.  Both land in the same tree and the same Chrome trace.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

#: ``keep_last`` of the recorder an engine makes for itself when it is
#: handed none: enough top-level spans for a trace of what just happened.
ENGINE_KEEP_LAST = 32

#: A charge must be below this and at least 0.0: finite, so one NaN or
#: infinite cost cannot turn every open span's work into one.
_INF = float("inf")


class Phase(enum.Enum):
    """The phase a unit of work is charged to."""

    MAP = "map"
    CONTRACTION = "contraction"
    REDUCE = "reduce"
    SHUFFLE = "shuffle"
    MEMO_READ = "memo_read"
    MEMO_WRITE = "memo_write"
    BACKGROUND = "background"

    # Members are singletons compared by identity; Enum's own __hash__ is
    # a Python-level call on every dict keyed by phase.
    __hash__ = object.__hash__


class SpanKind(enum.Enum):
    """Level of the span hierarchy a span belongs to."""

    RUN = "run"
    WINDOW_UPDATE = "window_update"
    PHASE = "phase"
    TASK = "task"
    ATTEMPT = "attempt"

    __hash__ = object.__hash__  # as Phase


@dataclass(eq=False)
class Span:
    """One node of the span tree.

    ``work`` is inclusive (this span plus all descendants), ``self_work``
    exclusive; both are keyed by :class:`Phase` and accumulated in charge
    order, never recomputed, so float totals are reproducible.
    """

    name: str
    kind: SpanKind
    start: float
    end: float | None = None
    #: Thread lane for trace export; ``None`` means the engine lane.
    thread: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    self_work: dict[Phase, float] = field(default_factory=dict)
    work: dict[Phase, float] = field(default_factory=dict)

    @property
    def is_open(self) -> bool:
        return self.end is None

    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def iter(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first, pre-order."""
        stack = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable summary of a telemetry tree, for reports and benches.

    ``by_phase`` and ``counters`` are whole-life totals; ``span_count``
    and ``instant_events`` count what the recorder still retains (see
    ``keep_last`` on :class:`Telemetry`).
    """

    label: str
    by_phase: dict[str, float]
    counters: dict[str, float]
    span_count: int
    unclosed_spans: int
    instant_events: int

    def total(self) -> float:
        return sum(self.by_phase.values())


class Telemetry:
    """Hierarchical span recorder: the single source of accounting truth.

    All mutation goes through four verbs: :meth:`span` (open a scoped
    span), :meth:`record_span` (append a pre-closed span, e.g. an executor
    attempt with cluster-clock timestamps), :meth:`charge` (add work to
    every open span), and :meth:`count`/:meth:`instant` (typed counters
    and point events).

    Retention.  ``keep_last=None`` keeps every span, counter sample and
    instant for the life of the recorder — what a recorder you construct
    and hand to an engine does, so it keeps what you built it to keep.
    With ``keep_last=N`` the root's direct children (window-update,
    background and restore spans, each closed before the next opens) are
    a ring of the newest ``N``, and the samples, instants and foreign
    open spans recorded before the oldest kept one opened leave with the
    spans that do — what the recorder an engine makes for itself does
    (:data:`ENGINE_KEEP_LAST`), so a stream can run indefinitely.  The
    ring drops structure only: ``by_phase``, ``counters`` and the work
    cursor are never touched, so every total is the same float either
    way.  :meth:`iter_spans`, :meth:`span_count` and :meth:`snapshot`
    describe what is retained.
    """

    def __init__(self, label: str = "run", keep_last: int | None = None) -> None:
        if keep_last is not None and keep_last < 1:
            raise ValueError(f"keep_last must be positive, got {keep_last}")
        self.keep_last = keep_last
        self.root = Span(name=label, kind=SpanKind.RUN, start=0.0)
        self._stack: list[Span] = [self.root]
        #: Monotone counters by name.
        self.counters: dict[str, float] = {}
        #: ``(name, ts, value)`` samples, one per count() call, for export.
        self.counter_samples: list[tuple[str, float, float]] = []
        #: Instant events: dicts with name/ts/args.
        self.instants: list[dict[str, Any]] = []
        self._work_cursor = 0.0
        #: Whether a level mark is open (:meth:`enter_mark`): its charges
        #: are its records', not the current span's ``self_work``.
        self._in_mark = False
        #: Spans that were open inside a subtree built elsewhere when it
        #: was attached here (``adopt``); no stack
        #: of this recorder will ever close them.
        self._foreign_open: list[Span] = []
        #: Per kept top-level span (``keep_last`` only): how many counter
        #: samples, instants and foreign open spans had ever been recorded
        #: when it was added, and how many of each have been dropped.
        self._marks: deque[tuple[int, ...]] = deque()
        self._dropped: tuple[int, ...] = (0, 0, 0)

    # -- clock -----------------------------------------------------------
    def now(self) -> float:
        """The engine pseudo-clock: cumulative work charged so far."""
        return self._work_cursor

    # -- spans -----------------------------------------------------------
    @property
    def current(self) -> Span:
        return self._stack[-1]

    def open_span(self, name: str, kind: SpanKind, **attrs: Any) -> Span:
        """Open a child span of the current span."""
        span = Span(name=name, kind=kind, start=self._work_cursor, attrs=attrs)
        self._add_child(span)
        self._stack.append(span)
        return span

    def close_span(self, span: Span) -> None:
        if self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order "
                f"(top of stack is {self._stack[-1].name!r})"
            )
        self._stack.pop()
        span.end = self._work_cursor

    def span(
        self, name: str, kind: SpanKind = SpanKind.TASK, **attrs: Any
    ) -> "_SpanContext":
        """Open a child span of the current span for a ``with`` body:
        ``with telemetry.span(...) as span``.  The span opens here and
        closes when the body exits, however it exits."""
        return _SpanContext(self, self.open_span(name, kind, **attrs))

    def keep_log(self, log: Any) -> None:
        """Let the current span keep ``log``, a finished run's
        (``attrs["log"]``): its level marks are read with the span."""
        self._stack[-1].attrs["log"] = log

    def record_span(
        self,
        name: str,
        kind: SpanKind,
        start: float,
        end: float,
        thread: str | None = None,
        **attrs: Any,
    ) -> Span | None:
        """Append an already-closed span with explicit timestamps.

        Used by the cluster layer, whose events carry simulated-clock
        times rather than the engine's work cursor; ``thread`` names the
        trace lane (e.g. ``"m3.s1"`` for machine 3, slot 1).
        """
        span = Span(
            name=name, kind=kind, start=start, end=end, thread=thread, attrs=attrs
        )
        self._add_child(span)
        return span

    def adopt(self, other: "Telemetry", name: str | None = None) -> Span | None:
        """Graft another telemetry's finished tree under the current span.

        Lets a scoped accounting domain (e.g. one ``BatchRuntime.run``,
        which must keep its own fresh recorder for bit-identity) contribute
        its spans to a long-lived trace without re-charging its work into
        this tree's totals.
        """
        grafted = other.root
        if grafted.end is None:
            grafted.end = other.now()
        if name is not None:
            grafted.name = name
        self.attach(grafted)
        return grafted

    def attach(self, span: Span) -> None:
        """Append a subtree built by another recorder under the current span.

        The subtree is walked once, here, for spans left open, so that
        :meth:`unclosed_spans` never has to walk the tree.
        """
        self._add_child(span)
        self._foreign_open.extend(s for s in span.iter() if s.is_open)

    def _add_child(self, span: Span) -> None:
        """Put ``span`` under the current span; under the root, the ring
        (if any) first lets its oldest go."""
        stack = self._stack
        if len(stack) == 1 and self.keep_last is not None:
            self._make_room()
        stack[-1].children.append(span)

    def _make_room(self) -> None:
        """Before one more top-level span is added: let the oldest go
        until ``keep_last - 1`` are kept, and with them every counter
        sample, instant and foreign open span older than the oldest kept."""
        children = self.root.children
        marks = self._marks
        tails = (self.counter_samples, self.instants, self._foreign_open)
        excess = len(children) + 1 - self.keep_last
        if excess > 0:
            del children[:excess]
        while len(marks) > len(children):
            marks.popleft()
        marks.append(
            tuple(gone + len(tail) for gone, tail in zip(self._dropped, tails))
        )
        if excess > 0:
            for tail, gone, keep_from in zip(tails, self._dropped, marks[0]):
                del tail[: keep_from - gone]
            self._dropped = marks[0]

    # -- accounting ------------------------------------------------------
    def charge(self, phase: Phase, amount: float) -> None:
        """Charge work to every open span, root first, and, unless a
        level mark is open, to the current span's ``self_work``.
        ``amount`` must be finite and non-negative (``ValueError``
        otherwise).

        The root-first order is load-bearing: it makes the root's
        inclusive totals float-identical to the seed's flat accumulator.
        """
        if not 0.0 <= amount < _INF:  # NaN fails both comparisons too
            raise ValueError(f"work must be non-negative, got {amount}")
        for span in self._stack:
            work = span.work
            work[phase] = work.get(phase, 0.0) + amount
        if not self._in_mark:
            own = self._stack[-1].self_work
            own[phase] = own.get(phase, 0.0) + amount
        self._work_cursor += amount

    def enter_mark(self, mark: Any) -> None:
        """A level mark (``worktable.LevelMark``) opens, its place read:
        until :meth:`exit_mark`, a charge stays out of ``self_work``."""
        self._in_mark = True

    def exit_mark(self, mark: Any) -> None:
        """The open level mark closes, its last record read."""
        self._in_mark = False

    @property
    def by_phase(self) -> dict[Phase, float]:
        """Inclusive per-phase totals — the seed's flat accumulator."""
        return self.root.work

    def total(self) -> float:
        """Total work across all phases (the sum of :attr:`by_phase`)."""
        return sum(self.root.work.values())

    # -- counters and events ---------------------------------------------
    def count(self, name: str, delta: float = 1.0, ts: float | None = None) -> None:
        """Bump a monotone counter and record a sample for trace export."""
        value = self.counters.get(name, 0.0) + delta
        self.counters[name] = value
        self.counter_samples.append(
            (name, self._work_cursor if ts is None else ts, value)
        )

    def instant(self, name: str, ts: float | None = None, **args: Any) -> None:
        """Record a point event (crash, detection, re-replication, ...)."""
        self.instants.append(
            {"name": name, "ts": self._work_cursor if ts is None else ts, "args": args}
        )

    # -- introspection ---------------------------------------------------
    def iter_spans(self) -> Iterator[Span]:
        return self.root.iter()

    def unclosed_spans(self) -> list[Span]:
        """Open spans other than the root (which closes only at export).

        Every open span is on the open-span stack or was open when its
        subtree was attached, so this costs O(open spans), not a walk of
        every span retained.
        """
        return self._stack[1:] + [s for s in self._foreign_open if s.is_open]

    def span_count(self) -> int:
        """Spans retained, the root included."""
        return sum(1 for _ in self.root.iter())

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(
            label=self.root.name,
            by_phase={p.value: v for p, v in self.root.work.items()},
            counters=dict(self.counters),
            span_count=self.span_count(),
            unclosed_spans=len(self.unclosed_spans()),
            instant_events=len(self.instants),
        )


class _SpanContext:
    """What :meth:`Telemetry.span` returns: yields the open span and
    closes it on exit (``close_span`` raises if it is not innermost)."""

    __slots__ = ("_telemetry", "_span")

    def __init__(self, telemetry: Telemetry, span: Span) -> None:
        self._telemetry = telemetry
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: Any) -> None:
        self._telemetry.close_span(self._span)


class _NullSpanContext:
    """Reusable no-op context manager yielding ``None``."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpanContext()


class NullTelemetry(Telemetry):
    """No-op recorder: seed-exact accounting, zero tracing.

    Keeps only the flat root ``work`` dict (the seed's flat per-phase
    accumulator); spans, counters, and events are discarded.  It is the
    equivalence oracle's ``null`` arm and the independent reference of the
    bit-identity test in ``tests/integration/test_telemetry_equivalence.py``.
    """

    def open_span(self, name: str, kind: SpanKind, **attrs: Any) -> Span:
        return self.root

    def close_span(self, span: Span) -> None:
        pass

    def span(self, name: str, kind: SpanKind = SpanKind.TASK, **attrs: Any):
        return _NULL_SPAN

    def record_span(self, *args: Any, **kwargs: Any) -> Span | None:
        return None

    def adopt(self, other: "Telemetry", name: str | None = None) -> Span | None:
        return None

    def attach(self, span: Span) -> None:
        pass

    def charge(self, phase: Phase, amount: float) -> None:
        if not 0.0 <= amount < _INF:
            raise ValueError(f"work must be non-negative, got {amount}")
        work = self.root.work
        work[phase] = work.get(phase, 0.0) + amount
        self._work_cursor += amount

    def count(self, name: str, delta: float = 1.0, ts: float | None = None) -> None:
        pass

    def instant(self, name: str, ts: float | None = None, **args: Any) -> None:
        pass
