"""Figure 7: Slider's work & time speedup over recomputing from scratch.

Six panels in the paper: work and time speedups for the three window modes
(append-only, fixed-width, variable-width) across the five applications,
for 5..25 % incremental input change.  Expected shape: large speedups at
small deltas, shrinking as the overlap between windows shrinks; the
compute-intensive apps (K-Means, KNN) gain most in work terms.
"""

from __future__ import annotations

import pytest

from conftest import CHANGE_PERCENTS, MODE_LABELS, MODES, WINDOW_SPLITS
from repro.bench.format import format_series
from repro.bench.harness import run_change_sweep


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_fig07_speedups(mode, apps):
    work_series: dict[str, list[float]] = {}
    time_series: dict[str, list[float]] = {}
    for spec in apps:
        sweep = run_change_sweep(
            spec,
            mode,
            baseline_variant="vanilla",
            change_percents=CHANGE_PERCENTS,
            window_splits=WINDOW_SPLITS,
        )
        work_series[spec.name] = sweep.work_speedups
        time_series[spec.name] = sweep.time_speedups

    print()
    print(
        format_series(
            f"Figure 7 (work) — {MODE_LABELS[mode]}: speedup vs recompute",
            "change%",
            CHANGE_PERCENTS,
            work_series,
        )
    )
    print(
        format_series(
            f"Figure 7 (time) — {MODE_LABELS[mode]}: speedup vs recompute",
            "change%",
            CHANGE_PERCENTS,
            time_series,
        )
    )

    for app, speedups in work_series.items():
        # Slider always wins, and wins more at smaller deltas.
        assert speedups[0] > speedups[-1] > 1.0, app
    for app, speedups in time_series.items():
        assert all(s > 1.0 for s in speedups), app
    # Compute-intensive apps gain the most in work terms at 5 % change.
    assert work_series["kmeans"][0] > work_series["hct"][0] * 0.8
