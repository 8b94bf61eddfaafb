"""Ablation: does the mode-specialized tree actually beat the alternatives?

Slider picks a different contraction tree per window mode (§3-§4).  This
ablation runs every tree that *can* serve a mode through the same schedule
and checks that the design choice pays:

* APPEND   — coalescing vs folding vs strawman;
* FIXED    — rotating vs folding vs strawman;
* VARIABLE — folding vs randomized vs strawman.
"""

from __future__ import annotations

from conftest import WINDOW_SPLITS
from repro.apps.registry import APP_REGISTRY
from repro.bench.format import format_table
from repro.bench.harness import SlideSchedule, run_experiment
from repro.slider.window import WindowMode

CHANGE = 5

CANDIDATES = {
    WindowMode.APPEND: ("coalescing", "folding", "strawman"),
    WindowMode.FIXED: ("rotating", "folding", "strawman"),
    WindowMode.VARIABLE: ("folding", "randomized", "strawman"),
}

PAPER_CHOICE = {
    WindowMode.APPEND: "coalescing",
    WindowMode.FIXED: "rotating",
    WindowMode.VARIABLE: "folding",
}


def measure(spec, mode, tree):
    schedule = SlideSchedule.for_change(mode, WINDOW_SPLITS, CHANGE, rounds=3)
    experiment = run_experiment(spec, mode, schedule, "slider", tree=tree)
    return experiment.mean_incremental_work()


def test_ablation_tree_choice():
    spec = APP_REGISTRY["hct"]
    rows = []
    results: dict[WindowMode, dict[str, float]] = {}
    for mode, trees in CANDIDATES.items():
        results[mode] = {}
        for tree in trees:
            work = measure(spec, mode, tree)
            results[mode][tree] = work
            rows.append([mode.value, tree, work])

    print()
    print(
        format_table(
            "Ablation — incremental work per tree variant (hct, 5% change)",
            ["mode", "tree", "mean incremental work"],
            rows,
        )
    )

    for mode, by_tree in results.items():
        choice = PAPER_CHOICE[mode]
        # The paper's pick is within 10% of the best candidate for its mode
        # (it is usually *the* best; randomized may tie folding).
        best = min(by_tree.values())
        assert by_tree[choice] <= 1.1 * best, (mode, by_tree)
        # And each specialized tree clearly beats the strawman.
        assert by_tree[choice] < by_tree["strawman"], (mode, by_tree)
