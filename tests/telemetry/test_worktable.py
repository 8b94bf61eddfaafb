"""Per-level work table: asymptotic bounds observed on real runs."""

from repro.apps.registry import micro_benchmark_apps
from repro.core.execute import PlanExecutor
from repro.core.partition import Partition
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from repro.telemetry import (
    Phase,
    SpanKind,
    Telemetry,
    check_incremental_bounds,
    check_initial_run_bounds,
    format_level_table,
    per_level_table,
)

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
    assert rows, "no TREE_LEVEL spans recorded"
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


def test_format_level_table_renders_totals():
    telemetry, _ = folding_run()
    rows = per_level_table(telemetry, tree="fold")
    rendered = format_level_table(rows, title="per-level (fold)")
    assert "per-level (fold)" in rendered
    assert "total" in rendered


def test_synthetic_bound_violation_is_reported():
    t = Telemetry(label="synthetic")
    executor = PlanExecutor(t)
    executor.begin_run("synthetic")
    with t.span("lvl", SpanKind.TREE_LEVEL, log=executor.log, tree="fold", level=3):
        for i in range(9):
            executor.memo_visit(Partition({f"k{i}": 1}), 1.0, node=f"task{i}")
    executor.end_run()
    rows = per_level_table(t, tree="fold")
    assert rows[0].tasks == 9
    assert check_initial_run_bounds(rows, 8, trees=1)  # 9 > ceil(8/8)=1
    assert check_incremental_bounds(rows, 2, 2, trees=1)  # 9 > 1+1+2


def test_the_incremental_bound_leaves_the_leaf_level_out():
    from repro.telemetry.worktable import LevelRow, check_incremental_bounds

    leaves = LevelRow(level=0, spans=1, tasks=1000, work=1000.0)
    first = LevelRow(level=1, spans=1, tasks=3, work=3.0)
    assert check_incremental_bounds([leaves, first], added=1, removed=1) == []
    assert check_incremental_bounds([first], added=0, removed=0) != []
