"""Unit tests for the distributed memoization cache and GC."""

import pytest

from repro.cluster.cache import CacheConfig, DistributedMemoCache, GarbageCollector
from repro.cluster.machine import Cluster, ClusterConfig
from repro.common.errors import CacheMissError
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
    with pytest.raises(CacheMissError):
        cache.fetch_or_raise(999)


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
    from repro.cluster.cache import CacheStats, ReadStats

    assert CacheStats is ReadStats
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
