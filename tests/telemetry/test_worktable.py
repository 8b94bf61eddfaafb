"""Per-level work table: asymptotic bounds observed on real runs.

The bound checkers live here, with the tests that read them: the engine
answers with the table (``per_level_table``), and the bound is the
asymptotic-analysis report's (PAPERS.md).
"""

import math

import pytest

from repro.apps.registry import micro_benchmark_apps
from repro.core.execute import PlanExecutor
from repro.core.partition import Partition
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from repro.telemetry import (
    CaptureTelemetry,
    LevelMark,
    LevelRow,
    Phase,
    Telemetry,
    level_work,
    per_level_table,
)


def check_initial_run_bounds(
    rows: list[LevelRow], leaves: int, trees: int = 1
) -> list[str]:
    """Violations of the initial-run bound; empty list means it holds.

    Level *i* of an initial run over ``leaves`` leaves touches at most
    ``ceil(leaves / 2**i)`` nodes (each level halves the frontier).
    ``trees`` is the number of independent contraction trees aggregated
    into ``rows`` (one per reducer): the bound scales linearly with it.
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

    A slide that removes ``removed`` leaves at the front and appends
    ``added`` at the back dirties two contiguous runs, so level *i*
    touches at most ``ceil(removed / 2**i) + ceil(added / 2**i) + 2``
    nodes (a contiguous run of *k* dirty nodes has at most
    ``ceil(k / 2**i) + 1`` ancestors at level *i*); ``trees`` scales it
    as in :func:`check_initial_run_bounds`.
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


LEAVES = 8


def folding_run():
    spec = next(s for s in micro_benchmark_apps() if s.name == "hct")
    telemetry = Telemetry(label="worktable")
    slider = Slider(
        spec.make_job(),
        WindowMode.VARIABLE,
        config=SliderConfig(mode=WindowMode.VARIABLE, tree="folding"),
        telemetry=telemetry,
    )
    slider.initial_run(spec.make_splits(LEAVES, 17, 0))
    slider.advance(spec.make_splits(2, 17, LEAVES), 2)
    return telemetry, slider.job.num_reducers


def test_initial_run_obeys_per_level_bound():
    telemetry, trees = folding_run()
    initial = telemetry.root.children[0]
    rows = per_level_table(initial, tree="fold")
    assert rows, "no level marks recorded"
    # Levels are contiguous from 1 and halve the frontier.
    assert [row.level for row in rows] == list(range(1, len(rows) + 1))
    assert check_initial_run_bounds(rows, LEAVES, trees=trees) == []


def test_incremental_run_obeys_per_level_bound():
    telemetry, trees = folding_run()
    incremental = telemetry.root.children[1]
    rows = per_level_table(incremental, tree="fold")
    assert rows
    assert check_incremental_bounds(rows, 2, 2, trees=trees) == []
    # The slide touches far fewer tasks per level than a rebuild would.
    initial_rows = per_level_table(telemetry.root.children[0], tree="fold")
    assert rows[0].tasks < initial_rows[0].tasks


def test_level_work_is_exact_sum_of_charges():
    telemetry, _ = folding_run()
    rows = per_level_table(telemetry, tree="fold")
    # Each row's work equals its own phase breakdown's sum, and all level
    # work is a subset of the contraction/memo charges of the whole run.
    for row in rows:
        assert row.work == sum(row.by_phase.values())
    total_level_work = sum(row.work for row in rows)
    backbone = telemetry.by_phase
    tracked = sum(
        backbone.get(p, 0.0)
        for p in (Phase.CONTRACTION, Phase.MEMO_READ, Phase.MEMO_WRITE)
    )
    assert total_level_work <= tracked + 1e-9


def test_tree_filter_separates_variants():
    telemetry, _ = folding_run()
    assert per_level_table(telemetry, tree="rot") == []
    assert per_level_table(telemetry, tree="fold")


def test_synthetic_bound_violation_is_reported():
    t = Telemetry(label="synthetic")
    executor = PlanExecutor(t)
    executor.begin_run("synthetic")
    with LevelMark(t, executor.log, "fold", 3):
        for i in range(9):
            executor.memo_visit(Partition({f"k{i}": 1}), 1.0, node=f"task{i}")
    executor.end_run()
    rows = per_level_table(t, tree="fold")
    assert rows[0].tasks == 9
    assert check_initial_run_bounds(rows, 8, trees=1)  # 9 > ceil(8/8)=1
    assert check_incremental_bounds(rows, 2, 2, trees=1)  # 9 > 1+1+2


def test_the_incremental_bound_leaves_the_leaf_level_out():
    leaves = LevelRow(level=0, spans=1, tasks=1000, work=1000.0)
    first = LevelRow(level=1, spans=1, tasks=3, work=3.0)
    assert check_incremental_bounds([leaves, first], added=1, removed=1) == []
    assert check_incremental_bounds([first], added=0, removed=0) != []


@pytest.mark.parametrize(
    "tree, mode",
    [("folding", WindowMode.VARIABLE), ("rotating", WindowMode.FIXED),
     ("coalescing", WindowMode.APPEND)],
)
def test_a_levels_work_is_what_its_sweep_charged(tree, mode):
    """A level's work is read off its records: per mark, the records'
    costs summed by phase in record order are, to the bit and in key
    order, the charges made while the mark was open, summed in charge
    order (read off the recorder's own event log)."""
    spec = next(s for s in micro_benchmark_apps() if s.name == "hct")
    telemetry = CaptureTelemetry(label="charged")
    slider = Slider(
        spec.make_job(), mode, config=SliderConfig(mode=mode, tree=tree),
        telemetry=telemetry,
    )
    slider.initial_run(spec.make_splits(LEAVES, 17, 0))
    for step in range(3):
        slider.advance(spec.make_splits(2, 17, LEAVES + 2 * step),
                       0 if mode is WindowMode.APPEND else 2)

    charged, sums = [], None
    for event in telemetry.events:
        if event[0] == "open":
            sums = {}
        elif event[0] == "close":
            charged.append(sums)
            sums = None
        elif event[0] == "charge" and sums is not None:
            sums[event[1]] = sums.get(event[1], 0.0) + event[2]
    read = [
        level_work(log.tasks(mark.first, mark.last))
        for span in telemetry.iter_spans()
        if (log := span.attrs.get("log")) is not None
        for mark in log.marks
    ]
    assert charged, "no level swept"

    def hexed(works):
        return [[(p.value, v.hex()) for p, v in w.items()] for w in works]

    assert hexed(read) == hexed(charged)
