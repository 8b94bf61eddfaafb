"""Table 1: Slider's hybrid scheduler vs the vanilla Hadoop scheduler.

Runs each application's incremental workload twice on the same simulated
cluster — once scheduled by Hadoop's first-free-slot policy (which ignores
where memoized state lives) and once by Slider's hybrid memoization-aware
scheduler — and reports the normalized run-time (Hadoop = 1).  Expected
shape (paper): the hybrid scheduler saves ~23 % for data-intensive
applications (their Reduce tasks fetch substantial memoized state over the
network under the Hadoop policy) and ~12 % for compute-intensive ones.
"""

from __future__ import annotations

import statistics

from conftest import WINDOW_SPLITS
from repro.bench.format import format_table
from repro.bench.harness import SlideSchedule, make_cluster, run_experiment
from repro.cluster.scheduler import HadoopScheduler, HybridScheduler
from repro.slider.window import WindowMode

CHANGE_PERCENT = 5


CLUSTER_SEEDS = (0, 1, 2, 3, 4)


def normalized_runtime(spec) -> float:
    """Hybrid / Hadoop mean incremental time, averaged over cluster seeds
    (which machines straggle and where state lands varies per seed)."""
    schedule = SlideSchedule.for_change(
        WindowMode.FIXED, WINDOW_SPLITS, CHANGE_PERCENT, rounds=3
    )
    ratios = []
    for seed in CLUSTER_SEEDS:
        hadoop = run_experiment(
            spec,
            WindowMode.FIXED,
            schedule,
            "slider",
            cluster=make_cluster(seed),
            scheduler=HadoopScheduler(),
        )
        hybrid = run_experiment(
            spec,
            WindowMode.FIXED,
            schedule,
            "slider",
            cluster=make_cluster(seed),
            scheduler=HybridScheduler(),
        )
        ratios.append(
            hybrid.mean_incremental_time() / hadoop.mean_incremental_time()
        )
    return statistics.mean(ratios)


def test_table1_scheduler(apps):
    rows = []
    ratios = {}
    for spec in apps:
        ratio = normalized_runtime(spec)
        ratios[spec.name] = ratio
        rows.append([spec.name, ratio])

    print()
    print(
        format_table(
            "Table 1 — normalized run-time, Slider hybrid scheduler "
            "(Hadoop scheduler = 1)",
            ["app", "normalized run-time"],
            rows,
        )
    )

    data_ratios = [r for name, r in ratios.items() if name in ("hct", "matrix", "substr")]
    compute_ratios = [r for name, r in ratios.items() if name in ("kmeans", "knn")]
    # Every app benefits from memoization-aware placement.
    for name, ratio in ratios.items():
        assert ratio < 1.0, (name, ratio)
        assert ratio > 0.4, (name, ratio)
    # Data-intensive apps (bigger memoized state to fetch) save more.
    assert statistics.mean(data_ratios) < statistics.mean(compute_ratios)
