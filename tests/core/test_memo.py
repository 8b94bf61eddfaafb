"""Unit tests for the memo table."""

from repro.core.memo import MemoTable
from repro.core.partition import Partition


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
