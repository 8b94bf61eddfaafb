"""Ablation: what the fault-tolerant memoization layer buys (§6).

The paper motivates replicating memoized state: losing a machine's
in-memory cache would otherwise "trigger otherwise unnecessary
recomputations".  This ablation quantifies that: a randomized contraction
tree (content-memoized through the distributed cache) re-runs an identical
window after a full cluster memory wipe, with and without persistent
replicas.  With replicas the rerun is nearly free (fallback reads only);
without them it pays the full reconstruction.
"""

from __future__ import annotations

from repro.bench.format import format_table
from repro.cluster.cache import CacheConfig, DistributedMemoCache
from repro.cluster.machine import Cluster, ClusterConfig
from repro.core.memo import MemoTable
from repro.core.partition import Partition
from repro.core.randomized import RandomizedFoldingTree
from repro.mapreduce.combiners import SumCombiner

WINDOW = 128


def leaves(count):
    return [Partition({"total": v, ("u", v): 1}) for v in range(count)]


def rerun_cost_after_wipe(replicas: int) -> tuple[float, int]:
    """(work of the post-wipe rerun, fallback reads served)."""
    cluster = Cluster(ClusterConfig(num_machines=8, straggler_fraction=0.0))
    cache = DistributedMemoCache(cluster, CacheConfig(replicas=replicas))
    tree = RandomizedFoldingTree(
        SumCombiner(), memo=MemoTable(backing=cache), auto_gc=False, seed=3
    )
    tree.initial_run(leaves(WINDOW))

    # Cluster-wide restart: every machine loses its in-memory state, and
    # the workers' local memo tables die with their processes.
    for machine in cluster.machines:
        cache.on_machine_failure(machine.machine_id)
    tree.memo.entries.clear()

    before = tree.executor.telemetry.total()
    root = tree.advance([], 0)
    assert root.get("total") == sum(range(WINDOW))
    return tree.executor.telemetry.total() - before, cache.stats.fallback_reads


def test_ablation_fault_tolerance():
    with_replicas, fallback_with = rerun_cost_after_wipe(replicas=2)
    without_replicas, fallback_without = rerun_cost_after_wipe(replicas=0)

    print()
    print(
        format_table(
            "Ablation — rerun cost after a full cluster memory wipe",
            ["configuration", "rerun work", "replica (fallback) reads"],
            [
                ["2 persistent replicas", with_replicas, fallback_with],
                ["no replication", without_replicas, fallback_without],
            ],
        )
    )

    # Replicas turn a full recomputation into cheap fallback reads.
    assert fallback_with > 0
    assert fallback_without == 0
    assert with_replicas < without_replicas / 5


# -- crash-timing sweep -------------------------------------------------------


def run_with_crash(crash_at: str) -> dict:
    """One incremental run with a machine crash at a chosen moment.

    ``crash_at``: "none" (fault-free), "mid-map" (during the map wave),
    "mid-reduce" (after the shuffle barrier), or "between-runs" (the
    legacy FaultInjector moment, before the run starts).
    Returns time/recovery numbers for the incremental run.
    """
    from repro.cluster.chaos import ChaosPlan, ChaosSchedule, MachineCrash
    from repro.mapreduce.job import MapReduceJob
    from repro.mapreduce.types import make_splits
    from repro.slider.system import Slider
    from repro.slider.window import WindowMode

    def build(chaos=None):
        job = MapReduceJob(
            name="wc-crash",
            map_fn=lambda line: [(w, 1) for w in line.split()],
            combiner=SumCombiner(),
            num_reducers=4,
        )
        cluster = Cluster(
            ClusterConfig(num_machines=8, straggler_fraction=0.0, seed=5)
        )
        return Slider(job, WindowMode.VARIABLE, cluster=cluster, chaos=chaos)

    corpus = [f"w{i % 17} w{i % 7} w{i % 3}" for i in range(240)]
    splits = make_splits(corpus, 2)

    # Probe run to learn where the map/reduce boundary falls in sim time.
    probe = build()
    probe.initial_run(splits[:80])
    probe_result = probe.advance(splits[80:96], 12)
    calm_time = probe_result.report.time
    # Fault-free runs leave no recovery data; re-run the same delta under
    # an always-on executor to read the map-wave finish time.
    from repro.cluster import ExecutorConfig

    shadow = build()
    shadow.executor_config = ExecutorConfig()
    shadow.initial_run(splits[:80])
    map_finish = shadow.advance(splits[80:96], 12).report.recovery["map_finish"]

    when = {
        "none": None,
        "mid-map": map_finish * 0.5,
        "mid-reduce": map_finish + (calm_time - map_finish) * 0.25,
        "between-runs": None,
    }[crash_at]

    slider = build()
    if crash_at == "between-runs":
        slider.initial_run(splits[:80])
        slider.cluster.kill(2)
        slider.on_machine_failure(2)
        slider.set_chaos(None, ExecutorConfig())
    else:
        chaos = None
        if when is not None:
            chaos = ChaosPlan(
                schedules={1: ChaosSchedule(
                    crashes=[MachineCrash(time=when, machine_id=2)]
                )}
            )
        slider.set_chaos(chaos, ExecutorConfig())
        slider.initial_run(splits[:80])
    result = slider.advance(splits[80:96], 12)
    assert result.outputs == probe_result.outputs
    recovery = result.report.recovery
    return {
        "crash": crash_at,
        "time": result.report.time,
        "overhead": result.report.time - calm_time,
        "re-executed": recovery.get("re_executed_attempts", 0.0),
        "detect delay": recovery.get("detection_delay", 0.0),
        "repair bytes": recovery.get("repair_bytes", 0.0)
        + recovery.get("block_repair_traffic", 0.0),
    }


def test_crash_timing_sweep():
    """Mid-map vs mid-reduce vs between-runs crash cost (§6).

    Outputs stay identical in every scenario; what varies is the recovery
    overhead: mid-wave crashes pay attempt re-execution plus the heartbeat
    detection delay, while between-runs crashes only pay re-replication
    and slower (fallback) memoized reads.
    """
    rows = [
        run_with_crash(timing)
        for timing in ("none", "mid-map", "mid-reduce", "between-runs")
    ]
    print()
    print(
        format_table(
            "Recovery overhead by crash timing (incremental run, machine 2)",
            list(rows[0].keys()),
            [list(row.values()) for row in rows],
        )
    )
    by_name = {row["crash"]: row for row in rows}
    assert by_name["none"]["overhead"] == 0.0
    for timing in ("mid-map", "mid-reduce"):
        assert by_name[timing]["re-executed"] >= 0
        assert by_name[timing]["time"] >= by_name["none"]["time"] - 1e-9
