"""Table 3: the Glasnost network-monitoring case study (§8.2).

Eleven months of synthetic measurement traces whose monthly volumes are
solved from the paper's own window totals, analyzed over a 3-month window
sliding by one month: nine windows, each reporting the number of test
runs, the window-change percentage (reproduced exactly from Table 3), and
Slider's work/time speedup over recomputation.  Expected shape: speedups
on the order of 2-4x, inversely tracking the window-change percentage
(the Apr-Jun window with the smallest change gains most; Sep-Nov with the
largest change gains least).
"""

from __future__ import annotations

from repro.apps.glasnost import glasnost_job, make_glasnost_splits
from repro.bench.format import format_table
from repro.datagen.glasnost import (
    TABLE3_MONTH_NAMES,
    TABLE3_MONTHLY_RUNS,
    GlasnostTraceGenerator,
)
from repro.slider.baseline import VanillaRunner
from repro.slider.system import Slider
from repro.slider.window import WindowMode

RUNS_PER_SPLIT = 50

#: The paper's Table 3 rows for cross-checking our derived volumes.
PAPER_WINDOW_TOTALS = [4033, 4862, 5627, 5358, 4715, 4325, 4384, 4777, 6536]
PAPER_CHANGE_PERCENT = [100.0, 40.65, 34.50, 26.89, 28.27, 35.86, 34.22, 36.13, 50.64]


def test_table3_glasnost():
    generator = GlasnostTraceGenerator(seed=11)
    month_splits = [
        make_glasnost_splits(
            generator.month_of_runs(month, count), RUNS_PER_SPLIT
        )
        for month, count in enumerate(TABLE3_MONTHLY_RUNS)
    ]

    # The window covers the most recent three months; it slides by one
    # month, whose sizes vary — a variable-width workload.
    slider = Slider(glasnost_job(), WindowMode.VARIABLE)
    vanilla = VanillaRunner(glasnost_job(), WindowMode.VARIABLE)
    window = month_splits[0] + month_splits[1] + month_splits[2]
    slider.initial_run(window)
    vanilla.initial_run(window)

    rows = []
    speedups = []
    for step in range(1, 9):
        removed = len(month_splits[step - 1])
        added = month_splits[step + 2]
        window_runs = sum(TABLE3_MONTHLY_RUNS[step : step + 3])
        change_runs = TABLE3_MONTHLY_RUNS[step + 2]
        change_percent = 100.0 * change_runs / window_runs

        s = slider.advance(added, removed)
        v = vanilla.advance(added, removed)
        assert s.outputs == v.outputs
        speedup = s.report.speedup_over(v.report)
        label = f"{TABLE3_MONTH_NAMES[step]}-{TABLE3_MONTH_NAMES[step + 2]}"
        rows.append(
            [label, window_runs, change_percent, speedup.time, speedup.work]
        )
        speedups.append((change_percent, speedup))

        # Our derived monthly volumes reproduce the paper's table exactly.
        assert window_runs == PAPER_WINDOW_TOTALS[step]
        assert abs(change_percent - PAPER_CHANGE_PERCENT[step]) < 0.05

    print()
    print(
        format_table(
            "Table 3 — Glasnost monitoring: 3-month window sliding monthly",
            ["window", "test runs", "change %", "time speedup", "work speedup"],
            rows,
        )
    )

    for change_percent, speedup in speedups:
        assert speedup.work > 1.3, (change_percent, speedup)
        assert speedup.time > 1.3, (change_percent, speedup)
        assert speedup.work < 12.0
    # Smallest change (Apr-Jun) gains more than the largest (Sep-Nov).
    smallest = min(speedups, key=lambda cs: cs[0])
    largest = max(speedups, key=lambda cs: cs[0])
    assert smallest[1].work > largest[1].work
