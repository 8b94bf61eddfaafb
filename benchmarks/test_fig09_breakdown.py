"""Figure 9: normalized work breakdown, Map vs contraction+Reduce.

For 5 % and 25 % input changes, shows how each application's incremental
work splits between the Map phase and the contraction+Reduce side, each
normalized to the corresponding phase of the vanilla Hadoop baseline ("H").
Expected shape: compute-intensive apps perform ~98 % of baseline work in
Map; Slider's Map percentage tracks the input change; the contraction+
Reduce percentage is less sensitive to the change size.
"""

from __future__ import annotations

import pytest

from conftest import WINDOW_SPLITS
from repro.bench.format import format_table
from repro.bench.harness import SlideSchedule, run_experiment
from repro.slider.window import WindowMode

MAP_PHASES = ("map",)
REDUCE_PHASES = ("contraction", "reduce", "memo_read", "memo_write", "shuffle")


def phase_sum(breakdown: dict, phases) -> float:
    return sum(breakdown.get(phase, 0.0) for phase in phases)


@pytest.mark.parametrize("change", [5, 25])
def test_fig09_breakdown(change, apps):
    rows = []
    checks = {}
    for spec in apps:
        # Baseline phase totals ("H" bar).
        schedule = SlideSchedule.for_change(WindowMode.VARIABLE, WINDOW_SPLITS, change)
        vanilla = run_experiment(spec, WindowMode.VARIABLE, schedule, "vanilla")
        v_report = vanilla.incremental[-1]
        v_map = phase_sum(v_report.breakdown, MAP_PHASES)
        v_reduce = phase_sum(v_report.breakdown, REDUCE_PHASES)
        rows.append(
            [spec.name, "H", 100.0 * v_map / (v_map + v_reduce), 100.0]
        )
        checks[spec.name] = {"H": v_map / (v_map + v_reduce)}

        for mode, label in [
            (WindowMode.APPEND, "A"),
            (WindowMode.FIXED, "F"),
            (WindowMode.VARIABLE, "V"),
        ]:
            mode_schedule = SlideSchedule.for_change(mode, WINDOW_SPLITS, change)
            slider = run_experiment(spec, mode, mode_schedule, "slider")
            s_report = slider.incremental[-1]
            s_map = phase_sum(s_report.breakdown, MAP_PHASES)
            s_reduce = phase_sum(s_report.breakdown, REDUCE_PHASES)
            map_pct = 100.0 * s_map / v_map if v_map else 0.0
            reduce_pct = 100.0 * s_reduce / v_reduce if v_reduce else 0.0
            rows.append([spec.name, label, map_pct, reduce_pct])
            checks[spec.name][label] = (map_pct, reduce_pct)

    print()
    print(
        format_table(
            f"Figure 9 — work breakdown, {change}% change "
            "(Slider phases as % of the matching Hadoop phase)",
            ["app", "mode", "map%", "contraction+reduce%"],
            rows,
        )
    )

    for app, by_mode in checks.items():
        h_map_share = by_mode["H"]
        if app in ("kmeans", "knn"):
            # Compute-intensive apps do ~98% of baseline work in Map.
            assert h_map_share > 0.9, app
        for label in ("A", "F", "V"):
            map_pct, reduce_pct = by_mode[label]
            # Slider's Map work tracks the input change (p% of baseline,
            # with slack for split rounding).
            assert map_pct <= 3.0 * change, (app, label, map_pct)
            assert map_pct > 0.0
            # The reduce side is reduced but less change-sensitive.
            assert reduce_pct < 100.0, (app, label, reduce_pct)
