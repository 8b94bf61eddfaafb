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

* initial run over ``n`` leaves: level *i* touches at most
  ``ceil(n / 2**i)`` nodes (each level halves the frontier);
* an incremental slide that removes ``r`` leaves at the front and
  appends ``a`` at the back dirties two contiguous runs, so level *i*
  touches at most ``ceil(r / 2**i) + ceil(a / 2**i) + 2`` nodes (each
  contiguous run of *k* dirty nodes has at most ``ceil(k / 2**i) + 1``
  ancestors at level *i*).

Because a mark's tally is accumulated in charge order (see
:mod:`repro.telemetry.spans`), the ``work`` column is exact, not a
re-derived estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any
from weakref import ref

from repro.telemetry.spans import Phase, Span, Telemetry


class LevelMark:
    """One tree level's sweep, kept on the run's log instead of a span.

    ``tree`` and ``level`` name it (``fold``, 3); ``first`` and ``last``
    bound the records the sweep appended to the log (a
    ``repro.core.plan.RunLog``, read through its ``tasks`` method);
    ``start`` and ``end`` are the work cursor at open and close; ``span``
    is a weak reference to the span it ran under (``None`` for the
    recorder's root: a kept log pins no span) and ``at`` how many
    children that span had then, which is where the Chrome trace places
    the level; ``work`` tallies by phase, in charge order, what was
    charged while it was open.

    A mark is its own ``with`` scope: it opens on the recorder and the log
    it is made with, and lets go of both when it closes.  While it is
    open the recorder's :meth:`~repro.telemetry.Telemetry.charge` adds to
    its tally where it would add to the current span's ``self_work``
    (the recorder's ``_tally``, which only a mark sets).  Made with no
    log, it still takes the tally but is kept nowhere.  A closed mark
    pickles without its span (a weak reference stays in its process):
    a worker's marks ran under its root anyway.
    """

    __slots__ = (
        "tree", "level", "first", "last", "start", "end", "span", "at",
        "work", "_telemetry", "_log",
    )

    def __init__(self, telemetry: Telemetry, log: Any, tree: str, level: int) -> None:
        self.tree = tree
        self.level = level
        self.first = self.last = 0
        self.work: dict[Phase, float] = {}
        #: The recorder and log the mark is open on; ``None`` once closed.
        self._telemetry: Any = telemetry
        self._log: Any = log

    def __enter__(self) -> "LevelMark":
        telemetry, log = self._telemetry, self._log
        current = telemetry._stack[-1]
        self.span = None if current is telemetry.root else ref(current)
        self.at = len(current.children)
        self.start = telemetry._work_cursor
        telemetry._tally = self.work
        if log is not None:
            self.first = len(log.records)
            log.marks.append(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        telemetry, log = self._telemetry, self._log
        telemetry._tally = None
        self.end = telemetry._work_cursor
        if log is not None:
            self.last = len(log.records)
        self._telemetry = self._log = None

    def __getstate__(self) -> tuple:
        return (
            self.tree, self.level, self.first, self.last, self.start,
            self.end, self.at, self.work,
        )

    def __setstate__(self, state: tuple) -> None:
        (self.tree, self.level, self.first, self.last, self.start, self.end,
         self.at, self.work) = state
        self.span = self._telemetry = self._log = None


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
        tasks = sum(len(log.tasks(m.first, m.last)) for log, m in marks)
        by_phase: dict[Phase, float] = {}
        for _, m in marks:
            for phase, amount in m.work.items():
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


def format_level_table(rows: list[LevelRow], title: str = "per-level work") -> str:
    """Render rows as a compact fixed-width table for reports."""
    lines = [title, f"{'level':>5} {'spans':>6} {'tasks':>6} {'work':>12}"]
    for row in rows:
        lines.append(
            f"{row.level:>5} {row.spans:>6} {row.tasks:>6} {row.work:>12.3f}"
        )
    total = sum(r.work for r in rows)
    lines.append(f"{'total':>5} {'':>6} {sum(r.tasks for r in rows):>6} {total:>12.3f}")
    return "\n".join(lines)


def check_initial_run_bounds(
    rows: list[LevelRow], leaves: int, trees: int = 1
) -> list[str]:
    """Violations of the initial-run bound; empty list means it holds.

    ``leaves`` is the per-tree leaf count and ``trees`` the number of
    independent contraction trees aggregated into ``rows`` (one per
    reducer) — the per-level bound scales linearly with it.
    """
    violations = []
    for row in rows:
        per_tree = math.ceil(leaves / (2**row.level)) if row.level > 0 else leaves
        bound = per_tree * trees
        if row.tasks > bound:
            violations.append(
                f"level {row.level}: {row.tasks} tasks > bound {bound} "
                f"(n={leaves}, trees={trees})"
            )
    return violations


def check_incremental_bounds(
    rows: list[LevelRow], added: int, removed: int, trees: int = 1
) -> list[str]:
    """Violations of the incremental-slide bound; empty list means ok.

    As with :func:`check_initial_run_bounds`, ``trees`` scales the bound
    when ``rows`` aggregates several independent reducer trees.
    """
    violations = []
    for row in rows:
        if row.level <= 0:
            continue
        scale = 2**row.level
        per_tree = math.ceil(added / scale) + math.ceil(removed / scale) + 2
        bound = per_tree * trees
        if row.tasks > bound:
            violations.append(
                f"level {row.level}: {row.tasks} tasks > bound {bound} "
                f"(added={added}, removed={removed}, trees={trees})"
            )
    return violations
