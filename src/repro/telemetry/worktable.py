"""Per-level work table: observe the asymptotic-analysis bounds directly.

The *Asymptotic Analysis of Self-Adjusting Contraction Trees* report
(PAPERS.md) proves per-level bounds that a flat per-phase accumulator
could never witness: charges lost their tree-level structure the moment they
hit ``by_phase``.  The telemetry backbone keeps that structure — tree
variants put a :class:`~repro.telemetry.LevelMark` on the open log for
each level's contraction sweep, and the run's window-update span (or a
background phase span) keeps that log — and this module aggregates those
marks into a compact table:

    level | spans | tasks | work

``spans`` counts the sweeps (marks) at a level.  ``tasks`` counts the
nodes each level executed — combines, pass-throughs, memo reads and
visits, a memo write counted with the combine it follows — read as the
log records the mark covers, which is the quantity the analysis bounds:
level *i* of an initial run over ``n`` leaves touches at most
``ceil(n / 2**i)`` nodes, and of a slide that removes ``r`` leaves and
appends ``a`` at most ``ceil(r / 2**i) + ceil(a / 2**i) + 2``
(``tests/telemetry/test_worktable.py`` checks both).

``work`` is the level's records' costs summed by phase in record order:
a record's cost is the float its node charged, so the sums repeat the
charges' own additions and the column is exact, not a re-derived
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any
from weakref import ref

from repro.telemetry.spans import Phase, Span, Telemetry


class LevelMark:
    """One tree level's sweep, kept on the run's log instead of a span.

    ``tree`` and ``level`` name it (``fold``, 3); ``first`` and ``last``
    bound the records the sweep appended to the log (a
    ``repro.core.plan.RunLog``, read through its ``tasks`` method), whose
    costs are the level's work (:func:`level_work`); ``start`` and
    ``end`` are the work cursor at open and close; ``span`` is a weak
    reference to the span it ran under (``None`` for the recorder's root:
    a kept log pins no span) and ``at`` how many children that span had
    then, which is where the Chrome trace places the level.

    A mark is its own ``with`` scope: it opens on the recorder and the log
    it is made with, and lets go of both when it closes.  While it is
    open the recorder's :meth:`~repro.telemetry.Telemetry.charge` leaves
    the current span's ``self_work`` alone (``Telemetry.enter_mark``).
    Made with no log, it still does, but is kept nowhere.  A mark stays
    in the process whose log holds it: a worker's open and close cross
    the seam as events (:mod:`repro.telemetry.merge`), and the parent
    opens a mark of its own on them.
    """

    __slots__ = (
        "tree", "level", "first", "last", "start", "end", "span", "at",
        "_telemetry", "_log",
    )

    def __init__(self, telemetry: Telemetry, log: Any, tree: str, level: int) -> None:
        self.tree = tree
        self.level = level
        self.first = self.last = 0
        #: The recorder and log the mark is open on; ``None`` once closed.
        self._telemetry: Any = telemetry
        self._log: Any = log

    def __enter__(self) -> "LevelMark":
        telemetry, log = self._telemetry, self._log
        current = telemetry._stack[-1]
        self.span = None if current is telemetry.root else ref(current)
        self.at = len(current.children)
        self.start = telemetry._work_cursor
        if log is not None:
            self.first = len(log.records)
            log.marks.append(self)
        telemetry.enter_mark(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        telemetry, log = self._telemetry, self._log
        self.end = telemetry._work_cursor
        if log is not None:
            self.last = len(log.records)
        telemetry.exit_mark(self)
        self._telemetry = self._log = None


def level_work(tasks: list[tuple[str, dict[Phase, float]]]) -> dict[Phase, float]:
    """A level's work by phase: its tasks' (``RunLog.tasks`` of its
    mark's records), summed in record order, which is charge order."""
    work: dict[Phase, float] = {}
    for _, costs in tasks:
        for phase, amount in costs.items():
            work[phase] = work.get(phase, 0.0) + amount
    return work


@dataclass(frozen=True)
class LevelRow:
    """Aggregate of all level marks at one level of one tree."""

    level: int
    spans: int
    tasks: int
    work: float
    by_phase: dict[Phase, float] = field(default_factory=dict, compare=False)


def per_level_table(
    root: Telemetry | Span, tree: str | None = None
) -> list[LevelRow]:
    """Aggregate the level marks read under ``root`` into per-level rows.

    The marks are those on the logs that ``root`` and the spans under it
    keep: a run's window-update span, a background phase span, or a
    recorder's root where a run was opened with no span open.  Given a
    :class:`Telemetry` it reads the spans that recorder retains: all of
    them for ``keep_last=None``, the last runs for the ring an engine
    makes for itself — hand the engine a recorder of your own to tabulate
    a whole experiment.

    ``tree`` filters by the variant tag the tree recorded on its marks
    (``fold``, ``rft``, ``rot``, ``straw``, ``coal``); ``None`` keeps all.
    """
    if isinstance(root, Telemetry):
        root = root.root
    buckets: dict[int, list[tuple[Any, LevelMark]]] = {}
    for span in root.iter():
        log = span.attrs.get("log")
        if log is None:
            continue
        for mark in log.marks:
            if tree is None or mark.tree == tree:
                buckets.setdefault(mark.level, []).append((log, mark))

    rows = []
    for level in sorted(buckets):
        marks = buckets[level]
        tasks = 0
        by_phase: dict[Phase, float] = {}
        for log, m in marks:
            level_tasks = log.tasks(m.first, m.last)
            tasks += len(level_tasks)
            for phase, amount in level_work(level_tasks).items():
                by_phase[phase] = by_phase.get(phase, 0.0) + amount
        rows.append(
            LevelRow(
                level=level,
                spans=len(marks),
                tasks=tasks,
                work=sum(by_phase.values()),
                by_phase=by_phase,
            )
        )
    return rows
