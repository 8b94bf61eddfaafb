"""Integration: end-to-end determinism and asymptotic scaling.

Two system-level properties the design promises:

* **determinism** — identical seeds produce bit-identical outputs, work
  numbers, and simulated times across completely fresh runs;
* **sub-linear updates** — a fixed-size slide costs work that grows only
  logarithmically with the window, while recomputation grows linearly
  (the core complexity claim of self-adjusting contraction trees).
"""

from repro.apps.registry import APP_REGISTRY
from repro.bench.harness import SlideSchedule, make_cluster, run_experiment
from repro.core.folding import FoldingTree
from repro.core.partition import Partition
from repro.core.rotating import RotatingTree
from repro.mapreduce.combiners import SumCombiner
from repro.slider.window import WindowMode


def test_full_experiment_is_deterministic():
    spec = APP_REGISTRY["hct"]
    schedule = SlideSchedule.for_change(WindowMode.VARIABLE, 20, 10)

    def run():
        experiment = run_experiment(
            spec,
            WindowMode.VARIABLE,
            schedule,
            "slider",
            cluster=make_cluster(),
        )
        return (
            experiment.initial.work,
            experiment.initial.time,
            [r.work for r in experiment.incremental],
            [r.time for r in experiment.incremental],
        )

    assert run() == run()


def test_variants_deterministic_across_modes():
    spec = APP_REGISTRY["substr"]
    for mode in WindowMode:
        schedule = SlideSchedule.for_change(mode, 12, 10)
        a = run_experiment(spec, mode, schedule, "slider")
        b = run_experiment(spec, mode, schedule, "slider")
        assert [r.work for r in a.incremental] == [r.work for r in b.incremental]


def _aggregating_leaves(count):
    # Single shared key: per-node merge cost is constant, exposing the
    # dependence of update cost on tree height alone.
    return [Partition({"total": v}) for v in range(count)]


def test_folding_update_cost_grows_sublinearly():
    """Doubling the window must not double the slide cost."""
    costs = {}
    for size in (64, 256, 1024):
        tree = FoldingTree(SumCombiner())
        tree.initial_run(_aggregating_leaves(size))
        before = tree.executor.telemetry.total()
        tree.advance([Partition({"total": size + 1})], removed=1)
        costs[size] = tree.executor.telemetry.total() - before
    # 16x window -> far less than 16x cost (log-ish growth).
    assert costs[1024] < 4.0 * costs[64]


def test_rotating_update_cost_grows_sublinearly():
    costs = {}
    for size in (64, 256, 1024):
        tree = RotatingTree(SumCombiner(), bucket_size=1)
        tree.initial_run(_aggregating_leaves(size))
        before = tree.executor.telemetry.total()
        tree.advance([Partition({"total": size + 1})], removed=1)
        costs[size] = tree.executor.telemetry.total() - before
    assert costs[1024] < 4.0 * costs[64]


def test_vanilla_recompute_grows_linearly():
    spec = APP_REGISTRY["hct"]
    works = {}
    for size in (10, 40):
        schedule = SlideSchedule.for_change(WindowMode.VARIABLE, size, 10)
        works[size] = run_experiment(
            spec, WindowMode.VARIABLE, schedule, "vanilla"
        ).mean_incremental_work()
    assert works[40] > 3.0 * works[10]


def test_slider_advantage_widens_with_window():
    """The headline asymptotic claim, end to end: Slider's advantage over
    recomputation grows with the window size at a fixed slide size."""
    spec = APP_REGISTRY["hct"]
    ratios = {}
    for size in (16, 64):
        schedule = SlideSchedule(window_splits=size, slides=((2, 2), (2, 2)))
        slider = run_experiment(spec, WindowMode.VARIABLE, schedule, "slider")
        vanilla = run_experiment(spec, WindowMode.VARIABLE, schedule, "vanilla")
        ratios[size] = (
            vanilla.mean_incremental_work() / slider.mean_incremental_work()
        )
    assert ratios[64] > 1.5 * ratios[16]
