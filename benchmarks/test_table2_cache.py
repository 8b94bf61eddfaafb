"""Table 2: read-time reduction from in-memory memoization caching.

Collects the memoized state a fixed-width Slider run actually produces
(per-reducer contraction-tree node partitions) and replays the incremental
run's read set against the distributed memoization layer twice: with the
in-memory cache enabled (shim reads served from RAM) and with it disabled
(every read falls back to the fault-tolerant persistent layer — disk +
network).  Reports the per-application reduction in total read time.
Expected shape (paper): 48-68 % savings, larger for applications with
bigger memoized objects (Matrix, subStr) since the fixed index-lookup
overhead amortizes better.
"""

from __future__ import annotations

from conftest import WINDOW_SPLITS
from repro.bench.format import format_table
from repro.cluster.cache import CacheConfig, DistributedMemoCache
from repro.cluster.machine import Cluster, ClusterConfig
from repro.core.partition import Partition
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode


def memoized_state_of_run(spec) -> list[Partition]:
    """The tree-node partitions a fixed-width incremental run reads."""
    job = spec.make_job()
    delta = max(1, WINDOW_SPLITS * 5 // 100)
    config = SliderConfig(mode=WindowMode.FIXED, bucket_size=delta)
    slider = Slider(job, WindowMode.FIXED, config=config)
    slider.initial_run(spec.make_splits(WINDOW_SPLITS, 17, 0))
    slider.advance(spec.make_splits(delta, 17, WINDOW_SPLITS), delta)
    state: list[Partition] = []
    for tree in slider.trees:
        cache = getattr(tree, "_cache", None)
        if isinstance(cache, dict):
            state.extend(p for p in cache.values() if p)
        state.extend(p for p in tree.memo.entries.values() if p)
    return state


def block_locality_rate(spec) -> float:
    """Block-store locality hit rate of a clustered fixed-width run.

    Drives the same schedule as ``memoized_state_of_run`` but on a simulated
    cluster, so Map placement consults the replicated block store; the rate
    comes straight off the telemetry-backed store counters.
    """
    job = spec.make_job()
    delta = max(1, WINDOW_SPLITS * 5 // 100)
    config = SliderConfig(mode=WindowMode.FIXED, bucket_size=delta)
    cluster = Cluster(ClusterConfig(num_machines=8, straggler_fraction=0.0))
    slider = Slider(job, WindowMode.FIXED, config=config, cluster=cluster)
    slider.initial_run(spec.make_splits(WINDOW_SPLITS, 17, 0))
    slider.advance(spec.make_splits(delta, 17, WINDOW_SPLITS), delta)
    assert slider.blocks is not None
    return slider.blocks.locality_hit_rate


def read_time_reduction(spec) -> tuple[float, float]:
    """(read-time reduction %, memo-cache hit rate of the cached replay).

    The hit rate is measured on the in-memory-enabled replay — the reads the
    shim layer actually serves for the incremental run's read set — with a
    mid-replay machine failure so the fallback path (and so a sub-100 % hit
    rate) is part of the picture, mirroring how the paper's deployment mixes
    memory and persistent reads.
    """
    state = memoized_state_of_run(spec)
    assert state, spec.name
    times = {}
    hit_rate = 0.0
    for enabled in (True, False):
        cluster = Cluster(ClusterConfig(num_machines=8, straggler_fraction=0.0))
        cache = DistributedMemoCache(
            cluster, CacheConfig(in_memory_enabled=enabled)
        )
        for index, partition in enumerate(state):
            cache.put(index, partition)
        for index in range(len(state)):
            assert cache.fetch(index) is not None
        times[enabled] = cache.stats.read_time
        if enabled:
            # Knock out one machine and re-read: its objects fall back to
            # persistent replicas, pulling the hit rate below 100 %.
            cluster.kill(0)
            cache.on_machine_failure(0)
            for index in range(len(state)):
                assert cache.fetch(index) is not None
            hit_rate = cache.stats.hit_rate
    return 100.0 * (1.0 - times[True] / times[False]), hit_rate


def test_table2_cache(apps):
    rows = []
    reductions = {}
    for spec in apps:
        reduction, memo_rate = read_time_reduction(spec)
        reductions[spec.name] = reduction
        locality_rate = block_locality_rate(spec)
        rows.append(
            [spec.name, reduction, 100.0 * memo_rate, 100.0 * locality_rate]
        )

    print()
    print(
        format_table(
            "Table 2 — reduction in memoized-state read time with "
            "in-memory caching (%)",
            [
                "app",
                "read-time reduction %",
                "memo-cache hit %",
                "block locality %",
            ],
            rows,
        )
    )

    # Both layers must have seen real traffic: the memo cache serves most
    # reads from memory but not all (the mid-replay failure forces some
    # fallbacks), and locality lookups found replicas for every split.
    for row in rows:
        assert 0.0 < row[2] < 100.0, row
        assert 0.0 < row[3] <= 100.0, row

    for name, reduction in reductions.items():
        # Paper band: 48-68%. Allow a generous envelope; the ordering and
        # rough magnitude are the reproducible shape.
        assert 25.0 < reduction < 80.0, (name, reduction)
    # Bigger memoized objects (matrix n-gram/pair state) benefit most.
    assert reductions["matrix"] > reductions["kmeans"]
