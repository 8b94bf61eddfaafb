"""Figure 8: Slider's work & time speedup over the memoization strawman.

The strawman reuses Map outputs but walks the whole contraction structure
each run (§2), so Slider's advantage here isolates the benefit of the
self-adjusting trees.  Expected shape: positive but smaller speedups than
against full recomputation (the paper reports 2-4x work, 1.3-3.7x time).
"""

from __future__ import annotations

import pytest

from conftest import CHANGE_PERCENTS, MODE_LABELS, MODES, WINDOW_SPLITS
from repro.bench.format import format_series
from repro.bench.harness import run_change_sweep


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_fig08_speedups(mode, apps):
    work_series: dict[str, list[float]] = {}
    time_series: dict[str, list[float]] = {}
    scratch_work: dict[str, list[float]] = {}
    for spec in apps:
        sweep = run_change_sweep(
            spec,
            mode,
            baseline_variant="strawman",
            change_percents=CHANGE_PERCENTS,
            window_splits=WINDOW_SPLITS,
        )
        work_series[spec.name] = sweep.work_speedups
        time_series[spec.name] = sweep.time_speedups
        scratch = run_change_sweep(
            spec,
            mode,
            baseline_variant="vanilla",
            change_percents=(5,),
            window_splits=WINDOW_SPLITS,
        )
        scratch_work[spec.name] = scratch.work_speedups

    print()
    print(
        format_series(
            f"Figure 8 (work) — {MODE_LABELS[mode]}: speedup vs strawman",
            "change%",
            CHANGE_PERCENTS,
            work_series,
        )
    )
    print(
        format_series(
            f"Figure 8 (time) — {MODE_LABELS[mode]}: speedup vs strawman",
            "change%",
            CHANGE_PERCENTS,
            time_series,
        )
    )

    compute_intensive = {s.name for s in apps if s.compute_intensive}
    for app, speedups in work_series.items():
        # Slider beats the strawman...
        assert speedups[0] > 1.0, app
        assert speedups[0] >= speedups[-1] * 0.8, app
        # ...by less than it beats recompute — guaranteed where Map work
        # dominates (the strawman's whole advantage is Map reuse).
        if app in compute_intensive:
            assert speedups[0] < scratch_work[app][0], app
