"""Per-level work table: observe the asymptotic-analysis bounds directly.

The *Asymptotic Analysis of Self-Adjusting Contraction Trees* report
(PAPERS.md) proves per-level bounds that a flat per-phase accumulator
could never witness: charges lost their tree-level structure the moment they
hit ``by_phase``.  The telemetry backbone keeps that structure — tree
variants open a ``TREE_LEVEL`` span around each level's contraction
sweep — and this module aggregates those spans into a compact table:

    level | spans | tasks | work

``tasks`` counts combiner invocations (``TASK`` spans) under each level,
which is the quantity the analysis bounds:

* initial run over ``n`` leaves: level *i* touches at most
  ``ceil(n / 2**i)`` nodes (each level halves the frontier);
* an incremental slide that removes ``r`` leaves at the front and
  appends ``a`` at the back dirties two contiguous runs, so level *i*
  touches at most ``ceil(r / 2**i) + ceil(a / 2**i) + 2`` nodes (each
  contiguous run of *k* dirty nodes has at most ``ceil(k / 2**i) + 1``
  ancestors at level *i*).

Because span work totals are accumulated in charge order (see
:mod:`repro.telemetry.spans`), the ``work`` column is exact, not a
re-derived estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.telemetry.spans import Phase, Span, SpanKind, Telemetry


@dataclass(frozen=True)
class LevelRow:
    """Aggregate of all TREE_LEVEL spans at one level of one tree."""

    level: int
    spans: int
    tasks: int
    work: float
    by_phase: dict[Phase, float] = field(default_factory=dict, compare=False)


def per_level_table(
    root: Telemetry | Span, tree: str | None = None
) -> list[LevelRow]:
    """Aggregate TREE_LEVEL spans under ``root`` into per-level rows.

    Given a :class:`Telemetry` it reads the spans that recorder retains:
    all of them for ``keep_last=None``, the last runs for the ring an
    engine makes for itself — hand the engine a recorder of your own to
    tabulate a whole experiment.

    ``tree`` filters by the variant tag the tree recorded on its level
    spans (``fold``, ``rft``, ``rot``, ``straw``); ``None`` keeps all.
    """
    if isinstance(root, Telemetry):
        root = root.root
    buckets: dict[int, list[Span]] = {}
    for span in root.iter():
        if span.kind is not SpanKind.TREE_LEVEL:
            continue
        if tree is not None and span.attrs.get("tree") != tree:
            continue
        buckets.setdefault(int(span.attrs.get("level", 0)), []).append(span)

    rows = []
    for level in sorted(buckets):
        spans = buckets[level]
        tasks = sum(
            1
            for s in spans
            for child in s.iter()
            if child.kind is SpanKind.TASK
        )
        by_phase: dict[Phase, float] = {}
        for s in spans:
            for phase, amount in s.work.items():
                by_phase[phase] = by_phase.get(phase, 0.0) + amount
        rows.append(
            LevelRow(
                level=level,
                spans=len(spans),
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
