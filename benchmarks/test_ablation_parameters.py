"""Ablations: bucket size (rotating) and rebuild factor (folding).

Two tunables DESIGN.md calls out:

* **Bucket size w** (§4.1): grouping the slide's w splits into one bucket
  means a slide replaces exactly one leaf.  With smaller buckets the same
  slide dirties several leaves/paths; the sweep quantifies the cost.
* **Rebuild factor** (§3.2): after a drastic shrink the plain folding tree
  can be left much taller than ⌈log₂ M⌉; rebuilding when capacity exceeds
  ``factor × window`` restores the height at a one-time cost.
"""

from __future__ import annotations

from repro.apps.registry import APP_REGISTRY
from repro.bench.format import format_table
from repro.bench.harness import SlideSchedule
from repro.core.folding import FoldingTree
from repro.core.partition import Partition
from repro.mapreduce.combiners import SumCombiner
from repro.slider.window import WindowMode

WINDOW = 32
SLIDE = 4  # splits per slide


def test_ablation_bucket_size():
    spec = APP_REGISTRY["substr"]
    schedule = SlideSchedule(
        window_splits=WINDOW, slides=((SLIDE, SLIDE),) * 3
    )
    rows = []
    works = {}
    for bucket_size in (1, 2, 4):
        job = spec.make_job()
        from repro.slider.system import Slider, SliderConfig

        config = SliderConfig(mode=WindowMode.FIXED, bucket_size=bucket_size)
        slider = Slider(job, WindowMode.FIXED, config=config)
        slider.initial_run(spec.make_splits(WINDOW, 17, 0))
        offset = WINDOW
        total = 0.0
        for added_count, removed in schedule.slides:
            added = spec.make_splits(added_count, 17, offset)
            offset += added_count
            total += slider.advance(added, removed).report.work
        works[bucket_size] = total / len(schedule.slides)
        rows.append([bucket_size, works[bucket_size]])

    print()
    print(
        format_table(
            f"Ablation — rotating-tree bucket size (slide = {SLIDE} splits)",
            ["bucket size w", "mean incremental work"],
            rows,
        )
    )
    # One bucket per slide (w = slide) is the cheapest configuration.
    assert works[4] <= works[2] <= works[1] * 1.05


def _leaves(values, tag=0):
    return [Partition({"total": v, ("u", tag, i): 1}) for i, v in enumerate(values)]


def test_ablation_rebuild_factor():
    """After a 15/16 shrink, the rebuilding tree amortizes its one-time
    rebuild within a few slides of the shorter tree."""

    def steady_state_cost(rebuild_factor):
        tree = FoldingTree(SumCombiner(), rebuild_factor=rebuild_factor)
        tree.initial_run(_leaves(range(128)))
        tree.advance(_leaves([1], tag=1), removed=120)  # drastic shrink
        before = tree.executor.telemetry.total()
        for step in range(10):
            tree.advance(_leaves([step], tag=2 + step), removed=1)
        per_slide = (tree.executor.telemetry.total() - before) / 10
        return per_slide, tree.height

    plain_cost, plain_height = steady_state_cost(None)
    rebuilt_cost, rebuilt_height = steady_state_cost(4)

    print()
    print(
        format_table(
            "Ablation — folding-tree rebuild factor after a 120/128 shrink",
            ["variant", "steady-state work/slide", "tree height"],
            [
                ["no rebuild", plain_cost, plain_height],
                ["rebuild_factor=4", rebuilt_cost, rebuilt_height],
            ],
        )
    )
    # The rebuilt tree is shorter and its slides are at most as expensive.
    assert rebuilt_height <= plain_height
    assert rebuilt_cost <= plain_cost * 1.05
