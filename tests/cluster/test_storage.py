"""Unit tests for the HDFS-like block store."""

import pytest

from repro.cluster.machine import Cluster, ClusterConfig
from repro.cluster.storage import BlockStore
from repro.mapreduce.types import make_splits


def quiet_cluster(n=6) -> Cluster:
    return Cluster(ClusterConfig(num_machines=n, straggler_fraction=0.0))


def splits(count=5):
    return make_splits([f"line {i}" for i in range(count * 2)], split_size=2)


def test_store_places_replicas_on_distinct_machines():
    store = BlockStore(quiet_cluster(), replication=3)
    for split in splits():
        info = store.store_split(split)
        assert len(info.replicas) == 3
        assert len(set(info.replicas)) == 3


def test_store_is_idempotent():
    store = BlockStore(quiet_cluster())
    split = splits(1)[0]
    a = store.store_split(split)
    b = store.store_split(split)
    assert a is b
    assert store.total_blocks() == 1


def test_replication_capped_by_cluster_size():
    store = BlockStore(quiet_cluster(n=2), replication=3)
    info = store.store_split(splits(1)[0])
    assert len(info.replicas) == 2


def test_preferred_machine_is_a_replica():
    store = BlockStore(quiet_cluster())
    split = splits(1)[0]
    store.store_split(split)
    preferred = store.preferred_machine(split.uid)
    assert preferred in store.replicas_of(split.uid)
    assert store.is_local(split.uid, preferred)


def test_unknown_block_has_no_locality():
    store = BlockStore(quiet_cluster())
    assert store.preferred_machine(12345) is None
    assert store.replicas_of(12345) == []


def test_failure_triggers_rereplication():
    cluster = quiet_cluster()
    store = BlockStore(cluster, replication=3)
    store.store_all(splits(10))
    victim = store.replicas_of(splits(10)[0].uid)[0]

    lost_blocks = store.blocks_on(victim)
    cluster.kill(victim)
    repaired = store.on_machine_failure(victim)
    assert repaired == len(lost_blocks)
    for split in splits(10):
        replicas = store.replicas_of(split.uid)
        assert victim not in replicas
        assert len(replicas) == 3


def test_preferred_machine_skips_dead_replica():
    cluster = quiet_cluster()
    store = BlockStore(cluster, replication=2)
    split = splits(1)[0]
    store.store_split(split)
    first = store.preferred_machine(split.uid)
    cluster.kill(first)
    # Without repair, the preferred machine falls through to a live replica.
    fallback = store.preferred_machine(split.uid)
    assert fallback != first
    assert fallback is not None


def test_drop_split_frees_storage():
    store = BlockStore(quiet_cluster())
    split = splits(1)[0]
    store.store_split(split)
    assert store.stored_bytes() > 0
    store.drop_split(split.uid)
    assert store.total_blocks() == 0
    assert store.stored_bytes() == 0.0


def test_validation():
    with pytest.raises(ValueError):
        BlockStore(quiet_cluster(), replication=0)


def test_slider_integration_uses_block_locality():
    from repro.mapreduce.combiners import SumCombiner
    from repro.mapreduce.job import MapReduceJob
    from repro.slider.system import Slider
    from repro.slider.window import WindowMode

    cluster = quiet_cluster()
    job = MapReduceJob(
        name="wc",
        map_fn=lambda line: [(w, 1) for w in line.split()],
        combiner=SumCombiner(),
        num_reducers=2,
    )
    slider = Slider(job, WindowMode.VARIABLE, cluster=cluster)
    window = splits(8)
    slider.initial_run(window)
    assert slider.blocks.total_blocks() == len(window)
    # GC drops blocks for splits that left the window.
    slider.advance(make_splits(["new a", "new b"], 1), removed=4)
    assert slider.blocks.total_blocks() == len(window) - 4 + 2


def test_locality_hit_rate_counts_lookups_that_found_an_alive_replica():
    cluster = quiet_cluster(n=3)
    store = BlockStore(cluster, replication=1)
    assert store.locality_hit_rate == 0.0  # before any lookup
    split = splits(1)[0]
    store.store_split(split)
    (home,) = store.replicas_of(split.uid)
    assert store.preferred_machine(split.uid) == home
    cluster.kill(home)
    assert store.preferred_machine(split.uid) is None
    assert store.locality_hit_rate == 0.5


def test_a_crash_with_no_machine_left_to_take_a_copy_repairs_nothing():
    # Every survivor already holds a replica: no candidate.
    cluster = quiet_cluster(n=3)
    store = BlockStore(cluster, replication=3)
    split = splits(1)[0]
    store.store_split(split)
    cluster.kill(0)
    assert store.on_machine_failure(0) == 0
    assert sorted(store.replicas_of(split.uid)) == [1, 2]
    # The last machine dies: no machine is alive to pick from.
    cluster.kill(1)
    cluster.kill(2)
    assert store.on_machine_failure(1) == 0
    assert store.on_machine_failure(2) == 0
    assert store.replicas_of(split.uid) == []
    assert store.repair_traffic == 0.0
