"""Figure 11: effectiveness of split (background/foreground) processing.

For the append-only and fixed-width modes, compares an update processed
with split processing against the same update without it, normalizing to
the unsplit update's total time (= 1).  Expected shape: foreground latency
drops to well below 1 while a substantial share of work is offloaded to
background pre-processing, and foreground+background exceeds 1 (the extra
merge the paper notes).
"""

from __future__ import annotations

import pytest

from conftest import WINDOW_SPLITS
from repro.bench.format import format_table
from repro.bench.harness import SlideSchedule, run_experiment
from repro.slider.window import WindowMode

CHANGE_PERCENT = 5


def measure_split_processing(spec, mode):
    """Steady-state (last round) foreground and background work, normalized
    to the same round's unsplit update work."""
    schedule = SlideSchedule.for_change(mode, WINDOW_SPLITS, CHANGE_PERCENT, rounds=3)
    plain = run_experiment(spec, mode, schedule, "slider", split_mode=False)
    split = run_experiment(
        spec,
        mode,
        schedule,
        "slider",
        split_mode=True,
        background_each_round=True,
    )
    normalizer = plain.incremental[-1].work
    foreground = split.incremental[-1].work
    # The background phase preparing that round ran just before it; in
    # steady state every round also has a follow-up background phase of the
    # same size, so the last recorded value is representative.
    background = split.background_work[-1]
    return foreground / normalizer, background / normalizer


@pytest.mark.parametrize(
    "mode",
    [WindowMode.APPEND, WindowMode.FIXED],
    ids=lambda m: m.value,
)
def test_fig11_split_processing(mode, apps):
    rows = []
    results = {}
    for spec in apps:
        foreground, background = measure_split_processing(spec, mode)
        rows.append([spec.name, foreground, background, foreground + background])
        results[spec.name] = (foreground, background)

    print()
    print(
        format_table(
            f"Figure 11 — split processing, {mode.value} mode "
            "(normalized: unsplit update = 1)",
            ["app", "foreground", "background", "fg+bg"],
            rows,
        )
    )

    for app, (foreground, background) in results.items():
        # Foreground is faster than the unsplit update...
        assert foreground < 1.0, (app, foreground)
        # ...because real work moved to the background phase.
        assert background > 0.0, app
        # The split costs an extra merge: fg+bg exceeds the unsplit total.
        assert foreground + background > 0.95, (app, foreground, background)
