"""Unit tests for the shared-memory partition store (the e2e probe's)."""

import pickle

import pytest

from repro.common.errors import MemoStoreFull
from repro.core.partition import Partition
from repro.core.sharedmem import SharedMemoStore


@pytest.fixture
def store():
    s = SharedMemoStore(namespaces=2, segment_bytes=1 << 20, slots=64)
    yield s
    s.close()


def part(i, keys=1):
    return Partition({f"k{i}-{j}": i for j in range(keys)})


class TestStoreBasics:
    def test_put_get_roundtrip(self, store):
        store.put(0, 7, part(1))
        assert store.get(0, 7) == part(1)
        assert store.get(0, 8) is None
        assert store.get(1, 7) is None  # namespaces are disjoint

    def test_overwrite_replaces_and_reaccounts(self, store):
        store.put(0, 7, part(1, keys=3))
        store.put(0, 7, part(2, keys=5))
        assert store.get(0, 7) == part(2, keys=5)
        assert store.count(0) == 1
        assert store.key_count(0) == 5

    def test_delete(self, store):
        store.put(0, 7, part(1))
        assert store.delete(0, 7)
        assert store.get(0, 7) is None
        assert not store.delete(0, 7)
        assert store.count(0) == 0 and store.key_count(0) == 0

    def test_keys_iterate_in_insertion_order(self, store):
        for key in (9, 3, 17, 5):
            store.put(0, key, part(key))
        store.put(1, 99, part(99))  # other namespace is invisible
        assert store.keys(0) == [9, 3, 17, 5]
        store.delete(0, 17)
        assert store.keys(0) == [9, 3, 5]

    def test_overwrite_keeps_first_insertion_position(self, store):
        for key in (1, 2, 3):
            store.put(0, key, part(key))
        store.put(0, 1, part(10))
        # The blob moved to the end of the data region, but only the
        # live (re-pointed) copy is reported — once.
        assert sorted(store.keys(0)) == [1, 2, 3]
        assert store.count(0) == 3

    def test_clear_is_per_namespace(self, store):
        store.put(0, 1, part(1))
        store.put(1, 2, part(2))
        store.clear(0)
        assert store.count(0) == 0
        assert store.get(0, 1) is None
        assert store.get(1, 2) == part(2)

    def test_counters_are_o1_header_reads(self, store):
        for key in range(10):
            store.put(0, key, part(key, keys=2))
        assert store.count(0) == 10
        assert store.key_count(0) == 20

    def test_namespace_out_of_range(self, store):
        with pytest.raises(ValueError):
            store.put(2, 1, part(1))
        with pytest.raises(ValueError):
            store.count(-1)

    def test_handles_are_never_picklable(self, store):
        with pytest.raises(TypeError):
            pickle.dumps(store)

    def test_segment_must_fit_header_and_index(self):
        with pytest.raises(ValueError):
            SharedMemoStore(namespaces=1, segment_bytes=512, slots=1 << 14)
        with pytest.raises(ValueError):
            SharedMemoStore(namespaces=0)


class TestCompactionAndFull:
    def test_compaction_reclaims_dead_bytes(self):
        store = SharedMemoStore(namespaces=1, segment_bytes=1 << 15, slots=64)
        try:
            big = Partition({f"k{i}": i for i in range(200)})
            # Repeated overwrites leave dead blobs; without compaction
            # ~30 rewrites of a ~4KiB payload overflow the 32KiB segment.
            for _ in range(50):
                store.put(0, 1, big)
            assert store.get(0, 1) == big
            assert store.count(0) == 1
        finally:
            store.close()

    def test_compaction_during_overwrite_keeps_index_valid(self):
        store = SharedMemoStore(namespaces=1, segment_bytes=1 << 15, slots=64)
        try:
            big = Partition({f"k{i}": i for i in range(150)})
            for key in (1, 2, 3):
                store.put(0, key, big)
            # Overwrite in a loop: the append path compacts mid-put, so
            # the pre-append probe result would be stale — every survivor
            # must still resolve afterwards.
            for round_ in range(30):
                store.put(0, 2, Partition({f"r{round_}-{i}": i for i in range(150)}))
                assert store.get(0, 1) == big
                assert store.get(0, 3) == big
            assert store.count(0) == 3
        finally:
            store.close()

    def test_store_full_when_even_compaction_cannot_help(self):
        store = SharedMemoStore(namespaces=1, segment_bytes=1 << 14, slots=64)
        try:
            huge = Partition({f"key-{i}": float(i) for i in range(2000)})
            with pytest.raises(MemoStoreFull):
                store.put(0, 1, huge)
        finally:
            store.close()

    def test_index_full_raises(self):
        store = SharedMemoStore(namespaces=1, segment_bytes=1 << 20, slots=8)
        try:
            for key in range(8):
                store.put(0, key, part(key))
            with pytest.raises(MemoStoreFull):
                store.put(0, 100, part(100))
            # Deleting re-opens a slot (after the compaction retry).
            store.delete(0, 3)
            store.put(0, 100, part(100))
            assert store.get(0, 100) == part(100)
        finally:
            store.close()

    def test_crc_rot_reads_as_miss(self, store):
        store.put(0, 5, part(5))
        # Flip a payload byte behind the store's back.
        head = store._get(8)  # data head: the blob sits at data_start
        payload_byte = store._data_start + 24  # past the blob header
        store._buf[payload_byte] ^= 0xFF
        assert store.get(0, 5) is None          # rot -> miss
        assert store.count(0) == 0               # entry was tombstoned
        store.put(0, 5, part(6))                 # recompute path re-stores
        assert store.get(0, 5) == part(6)
        assert store._get(8) > head

