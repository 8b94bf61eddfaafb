"""Shared helpers for the per-figure/per-table benchmarks.

Each ``test_fig*``, ``test_table*`` and ``test_ablation*`` file here
regenerates one table or figure from the paper's evaluation (§7-§8): it
prints the same rows/series the paper reports and asserts the qualitative
*shape* (who wins, roughly by how much, where trends point).  Their
numbers are modeled work and simulated time, never a clock; wall-clock
figures come from ``benchmarks/e2e``.

Run with:  python -m repro.bench.report
"""

from __future__ import annotations

import pytest

from repro.apps.registry import micro_benchmark_apps
from repro.slider.window import WindowMode

#: The paper's x-axis for Figures 7 and 8.
CHANGE_PERCENTS = (5, 10, 15, 20, 25)

#: Default window size (in splits) for micro-benchmark sweeps; large enough
#: for asymptotic behaviour, small enough for CI-speed benchmarks.
WINDOW_SPLITS = 40

MODES = (WindowMode.APPEND, WindowMode.FIXED, WindowMode.VARIABLE)

MODE_LABELS = {
    WindowMode.APPEND: "Append-only (A)",
    WindowMode.FIXED: "Fixed-width (F)",
    WindowMode.VARIABLE: "Variable-width (V)",
}


@pytest.fixture(scope="session")
def apps():
    """The five micro-benchmark applications."""
    return micro_benchmark_apps()
