"""Figure 13: Slider's one-time overheads for the initial run.

Three panels: (a) work overhead and (b) time overhead of the initial run
relative to vanilla Hadoop, and (c) space overhead of memoized state
normalized to the input size.  Expected shape: compute-intensive apps show
low performance overhead (their run time is dominated by real processing);
data-intensive apps pay more for memoizing intermediate tree nodes;
variable-width trees cost more than fixed-width, which cost more than
append-only; Matrix has by far the largest space overhead, K-Means/KNN
almost none.
"""

from __future__ import annotations

from conftest import MODES, WINDOW_SPLITS
from repro.bench.format import format_table
from repro.bench.harness import SlideSchedule, run_experiment
from repro.slider.window import WindowMode

MODE_LABEL = {
    WindowMode.APPEND: "append",
    WindowMode.FIXED: "fixed",
    WindowMode.VARIABLE: "variable",
}


def test_fig13_overheads(apps):
    work_rows, time_rows, space_rows = [], [], []
    work_overheads: dict[tuple[str, str], float] = {}
    space_factors: dict[tuple[str, str], float] = {}

    from repro.bench.harness import make_cluster
    from repro.cluster.scheduler import HadoopScheduler

    for spec in apps:
        schedule = SlideSchedule.for_change(WindowMode.VARIABLE, WINDOW_SPLITS, 5)
        # Same cluster and scheduler on both sides: the overhead measured is
        # Slider's extra contraction/memoization work, not a placement
        # artifact.
        vanilla = run_experiment(
            spec,
            WindowMode.VARIABLE,
            schedule,
            "vanilla",
            cluster=make_cluster(),
            scheduler=HadoopScheduler(),
        )
        base = vanilla.initial

        input_size = sum(
            len(split) for split in spec.make_splits(WINDOW_SPLITS, 17, 0)
        )

        work_row, time_row, space_row = [spec.name], [spec.name], [spec.name]
        for mode in MODES:
            mode_schedule = SlideSchedule.for_change(mode, WINDOW_SPLITS, 5)
            slider = run_experiment(
                spec,
                mode,
                mode_schedule,
                "slider",
                cluster=make_cluster(),
                scheduler=HadoopScheduler(),
            )
            initial = slider.initial
            work_overhead = 100.0 * (initial.work - base.work) / base.work
            time_overhead = 100.0 * (initial.time - base.time) / base.time
            space_factor = initial.space / input_size
            work_row.append(work_overhead)
            time_row.append(time_overhead)
            space_row.append(space_factor)
            work_overheads[(spec.name, MODE_LABEL[mode])] = work_overhead
            space_factors[(spec.name, MODE_LABEL[mode])] = space_factor
        work_rows.append(work_row)
        time_rows.append(time_row)
        space_rows.append(space_row)

    headers = ["app", "append", "fixed", "variable"]
    print()
    print(format_table("Figure 13(a) — initial-run work overhead (%)", headers, work_rows))
    print(format_table("Figure 13(b) — initial-run time overhead (%)", headers, time_rows))
    print(
        format_table(
            "Figure 13(c) — space overhead (factor of input size)",
            headers,
            space_rows,
        )
    )

    for spec_name in ("kmeans", "knn"):
        for mode in ("append", "fixed", "variable"):
            # Compute-intensive: low relative overhead (paper: smallest bars).
            assert work_overheads[(spec_name, mode)] < 40.0, (spec_name, mode)
    for spec_name in ("hct", "matrix", "substr"):
        # Variable-width costs at least as much as append-only (more tree
        # levels to memoize).
        assert (
            work_overheads[(spec_name, "variable")]
            >= work_overheads[(spec_name, "append")] - 1.0
        ), spec_name
    # Matrix has by far the largest space overhead; K-Means/KNN far less.
    # (Absolute factors are scale-dependent — the paper's near-zero K-Means
    # overhead comes from GB-sized windows dwarfing the fixed-size tree
    # state; at laptop scale the *ordering* is the reproducible shape.)
    assert space_factors[("matrix", "variable")] > 2.0
    assert (
        space_factors[("matrix", "variable")]
        > space_factors[("kmeans", "variable")] * 4
    )
    assert space_factors[("kmeans", "variable")] < 1.0
    assert space_factors[("knn", "variable")] < 1.0
