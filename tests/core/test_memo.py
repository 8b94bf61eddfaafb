"""Unit tests for the memo table."""

from repro.cluster import Cluster, ClusterConfig, DistributedMemoCache
from repro.core.memo import MemoTable
from repro.core.partition import Partition
from repro.recovery.repair import _corrupt_copy


def test_lookup_miss_then_hit():
    table = MemoTable()
    assert table.lookup(1) is None
    assert table.stats.misses == 1
    table.store(1, Partition({"k": 1}))
    assert table.lookup(1) == Partition({"k": 1})
    assert table.stats.hits == 1


def test_discard_counts_evictions():
    table = MemoTable()
    table.store(1, Partition({"k": 1}))
    table.discard(1)
    table.discard(99)  # absent: no eviction counted
    assert table.stats.evictions == 1
    assert table.lookup(1) is None


def test_retain_only():
    table = MemoTable()
    for uid in range(5):
        table.store(uid, Partition({"k": uid}))
    dropped = table.retain_only({0, 2})
    assert dropped == 3
    assert len(table) == 2
    assert table.space() == 2.0


def test_hit_rate():
    table = MemoTable()
    table.store(1, Partition({"k": 1}))
    table.lookup(1)
    table.lookup(2)
    assert table.stats.hit_rate == 0.5
    assert MemoTable().stats.hit_rate == 0.0


def test_hit_rate_is_a_plain_float():
    # the deprecated callable-float shim is gone
    table = MemoTable()
    table.store(1, Partition({"k": 1}))
    table.lookup(1)
    assert type(table.stats.hit_rate) is float
    assert not callable(table.stats.hit_rate)


def _corrupted(value: Partition) -> Partition:
    """A copy whose entries diverged from the recorded fingerprint."""
    entries = dict(value.entries)
    entries["\x00bitrot"] = 1
    return Partition(entries, uid=value.uid)


def test_tainted_mode_verifies_once_after_taint():
    table = MemoTable()
    good = Partition({"k": 1})
    table.store(7, good)
    table.entries[7] = _corrupted(good)
    # Untainted: the corrupt entry is served (verification is lazy).
    assert table.lookup(7) is not None
    table.taint({7})
    assert table.lookup(7) is None
    assert table.stats.corruptions == 1
    assert 7 not in table.entries


def test_taint_clears_on_successful_verify():
    table = MemoTable()
    table.store(7, Partition({"k": 1}))
    table.taint()  # no argument: taint everything known
    assert table.lookup(7) is not None
    assert 7 not in table._tainted
    assert table.stats.corruptions == 0


def test_a_corrupt_local_copy_is_healed_from_its_replica():
    """Only the local copy is bad: the backing's replica is verified, then
    served and taken back in, and the cache still holds it."""
    cache = DistributedMemoCache(
        Cluster(ClusterConfig(num_machines=4, straggler_fraction=0.0))
    )
    table = MemoTable(backing=cache)
    good = Partition({"k": 1, "j": 2})
    table.store(7, good)
    table.entries[7] = _corrupt_copy(good, 7)
    table.taint({7})
    assert table.lookup(7) == good
    assert table.entries[7].verify_fingerprint()
    assert table.stats.corruptions == 1 and table.stats.hits == 1
    assert cache.stats.misses == 0 and cache.total_objects() == 1
    assert 7 not in table._tainted


def test_a_corrupt_replica_is_verified_and_deleted_too():
    cache = DistributedMemoCache(
        Cluster(ClusterConfig(num_machines=4, straggler_fraction=0.0))
    )
    table = MemoTable(backing=cache)
    good = Partition({"k": 1})
    table.store(7, good)
    bad = _corrupt_copy(good, 7)
    table.entries[7] = bad
    cache.fetch = lambda uid: bad  # every copy rotted
    table.taint({7})
    assert table.lookup(7) is None
    assert table.stats.corruptions == 2 and table.stats.misses == 1
    assert cache.total_objects() == 0
    assert 7 not in table.entries and 7 not in table._tainted


class _FailingBacking:
    def fetch(self, uid):
        raise OSError("backing store unavailable")

    def put(self, uid, value):
        raise OSError("backing store unavailable")

    def delete(self, uid):
        raise OSError("backing store unavailable")


def test_backing_failure_degrades_instead_of_raising():
    table = MemoTable(backing=_FailingBacking())
    table.store(1, Partition({"a": 1}))  # put fails -> degraded, kept local
    assert table.degraded
    assert table.lookup(1) is not None  # local entry still serves
    assert table.lookup(2) is None  # no backing consult once degraded


def test_a_failing_fetch_degrades_to_a_miss():
    table = MemoTable(backing=_FailingBacking())
    assert table.lookup(1) is None
    assert table.degraded and table.stats.misses == 1


def test_a_failing_delete_degrades_instead_of_raising():
    table = MemoTable(backing=_FailingBacking())
    table.entries[1] = Partition({"a": 1})
    table.discard(1)
    assert table.degraded and 1 not in table.entries
