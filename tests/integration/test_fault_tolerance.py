"""Integration: machine failures against the memoization layer.

The paper's claim (§6): losing a machine's in-memory memoized state must
never affect correctness — the fault-tolerant layer serves persisted
replicas at a higher read cost — and the scheduler keeps making progress
on the surviving machines.
"""

from repro.cluster.cache import CacheConfig, DistributedMemoCache
from repro.cluster.faults import FaultInjector, FaultPlan
from repro.cluster.machine import Cluster, ClusterConfig
from repro.cluster.executor import execute_wave
from repro.cluster.scheduler import HybridScheduler, SimTask
from repro.core.memo import MemoTable
from repro.core.randomized import RandomizedFoldingTree
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import make_splits
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode


def word_job():
    return MapReduceJob(
        name="wc",
        map_fn=lambda line: [(w, 1) for w in line.split()],
        combiner=SumCombiner(),
        num_reducers=2,
    )


def quiet_cluster(n=6):
    return Cluster(ClusterConfig(num_machines=n, straggler_fraction=0.0))


def test_slider_outputs_survive_crashes():
    """Crash a machine before every incremental run; outputs stay exact."""
    cluster = quiet_cluster()
    slider = Slider(
        word_job(),
        WindowMode.VARIABLE,
        config=SliderConfig(mode=WindowMode.VARIABLE, tree="strawman"),
        cluster=cluster,
    )
    injector = FaultInjector(
        cluster,
        cache=slider.cache,
        plan=FaultPlan(crashes={0: [1], 1: [3], 2: [0]}),
    )

    corpus = [f"word{i % 7} word{i % 3}" for i in range(40)]
    splits = make_splits(corpus, 1)
    slider.initial_run(splits[:30])

    from repro.mapreduce.runtime import BatchRuntime

    window = list(splits[:30])
    for run_index, (added, removed) in enumerate(
        [(splits[30:32], 2), (splits[32:35], 1), (splits[35:38], 4)]
    ):
        injector.before_run(run_index)
        window = window[removed:] + list(added)
        result = slider.advance(added, removed)
        expected = BatchRuntime(word_job()).run(window).outputs
        assert result.outputs == expected


def test_crash_increases_read_cost_not_correctness():
    """A randomized tree (content-memoized through the distributed cache)
    keeps its entries through a crash — served from replicas, at fallback
    cost."""
    cluster = quiet_cluster()
    cache = DistributedMemoCache(cluster, CacheConfig())
    tree = RandomizedFoldingTree(
        SumCombiner(), memo=MemoTable(backing=cache), auto_gc=False
    )

    from repro.core.partition import Partition

    leaves = [Partition({"total": v, ("u", i): 1}) for i, v in enumerate(range(16))]
    tree.initial_run(leaves)
    assert cache.total_objects() > 0

    # Crash the machine owning the most objects; local tables die too.
    owners = {}
    for uid in list(cache._index):
        owners[cache.owner_of(uid)] = owners.get(cache.owner_of(uid), 0) + 1
    victim = max(owners, key=owners.get)
    cache.on_machine_failure(victim)
    cluster.kill(victim)
    tree.memo.entries.clear()

    # Re-running the identical window hits memoized values via replicas.
    invocations_before = tree.stats.combiner_invocations
    root = tree.advance([], 0)
    assert root.get("total") == sum(range(16))
    assert cache.stats.fallback_reads > 0
    assert tree.stats.combiner_invocations == invocations_before


def test_scheduling_continues_on_survivors():
    cluster = quiet_cluster(n=3)
    cluster.kill(0)
    cluster.kill(1)
    tasks = [SimTask(f"t{i}", cost=4.0, preferred_machine=0) for i in range(4)]
    report = execute_wave(tasks, cluster, HybridScheduler())
    assert all(a.machine_id == 2 for a in report.assignments)
    assert report.makespan == 4 * (4.0 / 1.0) / cluster.machine(2).slots


def test_without_replication_crash_forces_recomputation():
    """Ablation: with zero replicas, a crash loses state and the tree
    recomputes (correct but more expensive) — quantifying what the
    fault-tolerant layer buys."""
    from repro.core.partition import Partition

    def run_with(replicas: int) -> tuple[int, float]:
        cluster = quiet_cluster()
        cache = DistributedMemoCache(cluster, CacheConfig(replicas=replicas))
        tree = RandomizedFoldingTree(
            SumCombiner(), memo=MemoTable(backing=cache), auto_gc=False
        )
        leaves = [
            Partition({"total": v, ("u", i): 1}) for i, v in enumerate(range(64))
        ]
        tree.initial_run(leaves)
        invocations_before = tree.stats.combiner_invocations
        # Total cluster memory wipe (all machines restart).
        for machine in cluster.machines:
            cache.on_machine_failure(machine.machine_id)
        tree.memo.entries.clear()  # local tables die with their workers
        root = tree.advance([], 0)
        assert root.get("total") == sum(range(64))
        return tree.stats.combiner_invocations - invocations_before, root.uid

    recomputed_with, root_a = run_with(replicas=2)
    recomputed_without, root_b = run_with(replicas=0)
    assert root_a == root_b
    assert recomputed_with == 0  # replicas served everything
    assert recomputed_without > 10  # full recomputation


def test_slider_on_machine_failure_invalidates_local_views():
    """After a crash, tree memo lookups go through the shim layer and are
    served from replicas; outputs stay exact."""
    cluster = quiet_cluster()
    slider = Slider(
        word_job(),
        WindowMode.VARIABLE,
        config=SliderConfig(mode=WindowMode.VARIABLE, tree="randomized"),
        cluster=cluster,
    )
    injector = FaultInjector(
        cluster, slider=slider, plan=FaultPlan(crashes={0: [2]})
    )
    corpus = [f"word{i % 7} word{i % 3}" for i in range(40)]
    splits = make_splits(corpus, 1)
    slider.initial_run(splits[:30])

    injector.before_run(0)
    result = slider.advance(splits[30:32], 2)

    from repro.mapreduce.runtime import BatchRuntime

    expected = BatchRuntime(word_job()).run(splits[2:32]).outputs
    assert result.outputs == expected
    assert slider.cache.stats.fallback_reads > 0
