"""Figure 12: randomized folding tree vs the plain folding tree.

Two update scenarios on a variable-width window: shrink the window by 25 %
or by 50 % (plus a 1 % add), then keep sliding at the shrunken size.  The
paper's finding: the large 50 % shrink is where randomization pays off
(15-22 % work savings, because the randomized tree's expected height
immediately tracks the live window while the plain tree stays at the
pre-shrink height), while under the milder 25 % shrink the plain tree is
similar or slightly better.

The height advantage converts into work savings when per-node data
movement dominates — large partitions flowing through every tree level.
The primary measurement therefore drives the bare trees with
key-accumulating partitions (each leaf contributes unique keys, as Matrix
and subStr do); an app-level sweep is printed alongside for context, where
tiny per-reducer partitions (K-Means) dilute the effect to parity.
"""

from __future__ import annotations

import statistics


from repro.apps.registry import APP_REGISTRY
from repro.bench.format import format_table
from repro.core.folding import FoldingTree
from repro.core.partition import Partition
from repro.core.randomized import RandomizedFoldingTree
from repro.mapreduce.combiners import SumCombiner
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode

# Not a power of two: the initial window part-fills the folding tree, so a
# large shrink leaves live leaves straddling the root and the plain tree
# cannot fold down to the optimal height — the imbalance §3.2 targets.
WINDOW = 96
FOLLOW_UP_SLIDES = 12
SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)

CONTRACTION_PHASES = ("contraction", "memo_read", "memo_write")


def _leaf(tag: int, index: int, value: int) -> Partition:
    """A Matrix-like leaf: one shared aggregate plus unique keys."""
    return Partition({"total": value, ("u", tag, index): 1})


def _leaves(values, tag=0):
    return [_leaf(tag, i, v) for i, v in enumerate(values)]


def tree_scenario_work(tree, remove_count: int) -> float:
    """Work of the shrink update plus follow-up slides on a bare tree."""
    tree.initial_run(_leaves(range(WINDOW)))
    start = tree.executor.telemetry.total()
    tree.advance(_leaves([1], tag=1), remove_count)
    for step in range(FOLLOW_UP_SLIDES):
        tree.advance(_leaves([step], tag=2 + step), 1)
    return tree.executor.telemetry.total() - start


def tree_level_speedup(remove_percent: int) -> tuple[float, float, float]:
    removed = WINDOW * remove_percent // 100
    folding_work = tree_scenario_work(FoldingTree(SumCombiner()), removed)
    randomized_work = statistics.mean(
        tree_scenario_work(RandomizedFoldingTree(SumCombiner(), seed=seed), removed)
        for seed in SEEDS
    )
    return folding_work / randomized_work, folding_work, randomized_work


def app_level_speedup(spec, remove_percent: int) -> float:
    """Contraction-side work ratio through the full Slider engine."""

    def run(tree: str, seed: int) -> float:
        job = spec.make_job()
        config = SliderConfig(mode=WindowMode.VARIABLE, tree=tree, seed=seed)
        slider = Slider(job, WindowMode.VARIABLE, config=config)
        slider.initial_run(spec.make_splits(WINDOW, 17, 0))
        removed = WINDOW * remove_percent // 100
        offset = WINDOW
        total = 0.0
        for add_count, remove_count in [(1, removed)] + [(1, 1)] * 5:
            new_splits = spec.make_splits(add_count, 17, offset)
            offset += add_count
            report = slider.advance(new_splits, remove_count).report
            total += sum(
                report.breakdown.get(p, 0.0) for p in CONTRACTION_PHASES
            )
        return total

    folding = run("folding", 0)
    randomized = statistics.mean(run("randomized", seed) for seed in (0, 1, 2))
    return folding / randomized


def test_fig12_randomized_folding_tree():
    speedup_25, f25, r25 = tree_level_speedup(25)
    speedup_50, f50, r50 = tree_level_speedup(50)
    app_rows = [
        [spec_name, app_level_speedup(APP_REGISTRY[spec_name], 50)]
        for spec_name in ("kmeans", "matrix")
    ]

    print()
    print(
        format_table(
            "Figure 12 — randomized vs plain folding tree "
            "(tree-level, key-accumulating partitions)",
            ["scenario", "folding work", "randomized work", "randomized speedup"],
            [
                ["25% remove, 1% add", f25, r25, speedup_25],
                ["50% remove, 1% add", f50, r50, speedup_50],
            ],
        )
    )
    print(
        format_table(
            "Context: app-level contraction-work ratio at 50% remove "
            "(small per-reducer partitions dilute the effect)",
            ["app", "randomized speedup"],
            app_rows,
        )
    )

    # Paper's shape: the large shrink is where randomization wins.
    assert speedup_50 > 1.0, speedup_50
    # The milder shrink gives comparable performance, below the 50% gain.
    assert 0.7 < speedup_25 < speedup_50, (speedup_25, speedup_50)
    # Structural claim behind the figure: after the big shrink the
    # randomized tree's height tracks the live window; the plain tree
    # cannot fold below the pre-shrink height.
    folding = FoldingTree(SumCombiner())
    folding.initial_run(_leaves(range(WINDOW)))
    folding.advance(_leaves([1], tag=1), WINDOW // 2)
    randomized_heights = []
    for seed in SEEDS:
        randomized = RandomizedFoldingTree(SumCombiner(), seed=seed)
        randomized.initial_run(_leaves(range(WINDOW)))
        randomized.advance(_leaves([1], tag=1), WINDOW // 2)
        randomized_heights.append(randomized.height)
    assert folding.height == 7
    assert statistics.mean(randomized_heights) < folding.height
