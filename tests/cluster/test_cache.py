"""Unit tests for the distributed memoization cache and GC."""

import pytest

from repro.cluster.cache import (
    DISK_READ_COST,
    LOOKUP_OVERHEAD,
    NETWORK_READ_COST,
    CacheConfig,
    DistributedMemoCache,
    GarbageCollector,
)
from repro.cluster.machine import Cluster, ClusterConfig
from repro.core.memo import MemoTable
from repro.core.partition import Partition


def make_cache(n=4, **cache_kwargs):
    cluster = Cluster(ClusterConfig(num_machines=n, straggler_fraction=0.0))
    return cluster, DistributedMemoCache(cluster, CacheConfig(**cache_kwargs))


def test_put_then_fetch_from_memory():
    _, cache = make_cache()
    part = Partition({"k": 1})
    cache.put(100, part)
    assert cache.fetch(100) == part
    assert cache.stats.memory_reads == 1
    assert cache.stats.fallback_reads == 0


def test_fetch_missing_returns_none_and_counts_miss():
    _, cache = make_cache()
    assert cache.fetch(999) is None
    assert cache.stats.misses == 1


def test_machine_failure_falls_back_to_replica():
    cluster, cache = make_cache()
    part = Partition({"k": 2})
    cache.put(200, part)
    owner = cache.owner_of(200)
    cache.on_machine_failure(owner)
    cluster.kill(owner)
    assert cache.fetch(200) == part
    assert cache.stats.fallback_reads == 1


def test_machine_failure_counts_lost_objects():
    cluster, cache = make_cache(n=3)
    # Place objects until some land on machine 0.
    uids_on_0 = []
    for uid in range(30):
        cache.put(uid, Partition({"k": uid}))
        if cache.owner_of(uid) == 0:
            uids_on_0.append(uid)
    assert uids_on_0, "placement should spread over machines"

    cluster.kill(0)
    assert cache.on_machine_failure(0) == len(uids_on_0)
    # Fault-tolerant layer still serves the lost objects.
    for uid in uids_on_0:
        assert cache.fetch(uid) is not None


def test_fallback_promotes_back_to_memory():
    cluster, cache = make_cache()
    part = Partition({"k": 3})
    cache.put(300, part)
    owner = cache.owner_of(300)
    cache.on_machine_failure(owner)
    cluster.kill(owner)
    cache.fetch(300)
    cluster.revive(owner)
    assert cache.fetch(300) == part
    assert cache.stats.memory_reads == 1  # second read served from memory


def test_fallback_read_is_slower_than_memory_read():
    cluster, cache = make_cache()
    part = Partition({"k": 4})
    cache.put(400, part)
    cache.fetch(400)
    memory_time = cache.stats.read_time
    owner = cache.owner_of(400)
    cache.on_machine_failure(owner)
    cluster.kill(owner)
    cache.fetch(400)
    fallback_time = cache.stats.read_time - memory_time
    assert fallback_time > memory_time


def test_disabled_memory_cache_always_falls_back():
    """The Table 2 ablation: shim layer without the in-memory cache."""
    _, cache = make_cache(in_memory_enabled=False)
    part = Partition({"k": 5})
    cache.put(500, part)
    assert cache.fetch(500) == part
    assert cache.stats.memory_reads == 0
    assert cache.stats.fallback_reads == 1


def test_delete_removes_all_copies():
    _, cache = make_cache()
    cache.put(600, Partition({"k": 6}))
    cache.delete(600)
    assert cache.fetch(600) is None
    assert cache.space() == 0.0


def test_memo_table_backing_integration():
    """A tree MemoTable backed by the distributed cache sees its entries."""
    _, cache = make_cache()
    table = MemoTable(backing=cache)
    part = Partition({"k": 7})
    table.store(700, part)
    fresh = MemoTable(backing=cache)  # a new run's local table
    assert fresh.lookup(700) == part


def test_gc_collect_drops_dead_objects():
    _, cache = make_cache()
    for uid in range(10):
        cache.put(uid, Partition({"k": uid}))
    gc = GarbageCollector(cache)
    dropped = gc.collect(live_uids={0, 1, 2})
    assert dropped == 7
    assert cache.total_objects() == 3
    assert cache.fetch(5) is None


def test_replicas_survive_any_single_failure():
    cluster, cache = make_cache(n=6)
    for uid in range(20):
        cache.put(uid, Partition({"k": uid}))
    victim = 2
    cache.on_machine_failure(victim)
    cluster.kill(victim)
    for uid in range(20):
        assert cache.fetch(uid) is not None


def test_hit_rate_zero_before_any_lookup():
    from repro.cluster.cache import ReadStats

    assert ReadStats().hit_rate == 0.0


def test_hit_rate_counts_memory_fraction():
    cluster, cache = make_cache()
    for uid in range(4):
        cache.put(uid, Partition({"k": uid}))
    for uid in range(4):
        cache.fetch(uid)  # all served from memory
    assert cache.stats.hit_rate == 1.0
    cache.fetch(999)  # a miss
    assert cache.stats.hit_rate == 4 / 5
    # Knock out a machine: its objects fall back to persistent replicas.
    victim = 0
    cache.on_machine_failure(victim)
    cluster.kill(victim)
    for uid in range(4):
        assert cache.fetch(uid) is not None
    stats = cache.stats
    assert stats.fallback_reads > 0
    lookups = stats.memory_reads + stats.fallback_reads + stats.misses
    assert stats.hit_rate == stats.memory_reads / lookups


def test_cache_counters_mirrored_into_telemetry():
    from repro.telemetry import Telemetry

    cluster = Cluster(ClusterConfig(num_machines=4, straggler_fraction=0.0))
    telemetry = Telemetry(label="cache")
    cache = DistributedMemoCache(cluster, CacheConfig(), telemetry=telemetry)
    cache.put(1, Partition({"k": 1}))
    cache.fetch(1)
    cache.fetch(2)
    assert telemetry.counters["cache.memory_reads"] == 1.0
    assert telemetry.counters["cache.misses"] == 1.0


def test_detected_crash_re_replicates_every_held_object():
    """§6's recovery traffic: when the master detects a crash mid-run it
    copies each under-replicated memo object from a surviving replica
    until every held object is back at ``min(replicas, alive)`` live disk
    copies, charging a lookup plus a disk read and a network transfer a
    copy to the read time Table 2 reports."""
    from repro import MapReduceJob, Slider, SliderConfig, SumCombiner, WindowMode
    from repro.cluster import ChaosSchedule, MachineCrash
    from repro.datagen.text import TextCorpusGenerator
    from repro.mapreduce.types import make_splits

    job = MapReduceJob(
        name="wordcount",
        map_fn=lambda line: [(word, 1) for word in line.split()],
        combiner=SumCombiner(),
        num_reducers=2,
    )
    cluster = Cluster(ClusterConfig(num_machines=6, slots_per_machine=2))
    slider = Slider(
        job,
        WindowMode.VARIABLE,
        # The randomized tree is the one that writes its memo through.
        config=SliderConfig(mode=WindowMode.VARIABLE, tree="randomized"),
        cluster=cluster,
    )
    lines = TextCorpusGenerator(seed=12, vocabulary_size=200).lines(320)
    splits = make_splits(lines, split_size=10)
    slider.initial_run(splits[:30])
    cache, config = slider.cache, slider.cache.config

    def copies() -> dict[int, dict[int, Partition]]:
        """uid -> {machine holding a disk copy: the copy}."""
        held: dict[int, dict[int, Partition]] = {}
        for machine_id, store in cache._disk.items():
            for uid, value in store.items():
                held.setdefault(uid, {})[machine_id] = value
        return held

    def size(value: Partition) -> float:
        return max(1.0, float(len(value)))

    assert len(copies()) == 33
    seen = {}
    repair = cache.repair

    def observed_repair() -> float:
        before, stats = copies(), dict(vars(cache.stats))
        seen["copied"] = repair()
        seen["after"] = copies()
        seen["new"] = [
            size(value)
            for uid, held in seen["after"].items()
            for machine, value in held.items()
            if machine not in before[uid]
        ]
        seen["grew"] = {
            name: vars(cache.stats)[name] - stats[name] for name in stats
        }
        seen["alive"] = {m.machine_id for m in cluster.machines if m.alive}
        stats = dict(vars(cache.stats))
        seen["again"] = repair()
        seen["still"] = stats == vars(cache.stats)
        stores = [*cache._memory.values(), *cache._disk.values()]
        seen["space"] = (
            cache.space(),
            sum(size(v) for v in {u: v for s in stores for u, v in s.items()}.values()),
            sum(size(v) for s in stores for v in s.values()),
        )
        return seen["copied"]

    cache.repair = observed_repair
    slider.set_chaos(ChaosSchedule(crashes=[MachineCrash(time=0.5, machine_id=2)]))
    slider.advance(splits[30:32], 2)

    alive, after, new = seen["alive"], seen["after"], seen["new"]
    assert 2 not in alive
    target = min(config.replicas, len(alive))
    assert all(len(held.keys() & alive) == target for held in after.values())
    assert len(new) == seen["grew"]["repaired_objects"] == 13
    assert seen["copied"] == pytest.approx(sum(new))
    assert seen["grew"]["repair_bytes"] == pytest.approx(sum(new))
    per_copy = DISK_READ_COST + NETWORK_READ_COST
    assert seen["grew"]["read_time"] == pytest.approx(
        sum(LOOKUP_OVERHEAD + per_copy * value for value in new)
    )
    assert seen["again"] == 0.0 and seen["still"]
    # A copy adds no space: each held object counts once, however many
    # memory and disk copies it has.
    space, each_once, every_copy = seen["space"]
    assert space == pytest.approx(each_once) and space < every_copy


def test_repair_with_every_machine_down_copies_nothing():
    cluster, cache = make_cache(n=3)
    cache.put(1, Partition({"k": 1}))
    for machine in cluster.machines:
        cluster.kill(machine.machine_id)
    assert cache.repair() == 0.0
    assert cache.stats.repaired_objects == 0
