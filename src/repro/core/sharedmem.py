"""A cross-process memo store over one shared-memory segment.

**Nothing under ``src/`` imports this module.**  It was the store under
the process backend's memo tables until no run that can dispatch turned
out to read or write it (the trees that dispatch keep node results by
position; the one variant that memoizes never dispatches and paid a
pickle, a lock and a CRC an access, in the parent alone).  It stays, with
``tests/core/test_sharedmem.py``, only because the end-to-end benchmark
(``benchmarks/e2e/e2ebench/probes.py``, which a code PR may not edit)
imports :class:`SharedMemoStore` for its ``sharedmem.put_us`` /
``get_us`` probes; a ``benchmark`` PR that drops those probes deletes
this file, the :class:`~repro.core.memo.MemoStore` protocol and
``MemoTable``'s ``MemoStoreFull`` branch with it.

What it is: a :class:`SharedMemoStore` owns a single
``multiprocessing.shared_memory`` segment — created *before* a worker
pool forks, so every process addresses the same mapping without any
name-attach or ``Manager`` proxy traffic — and exposes per-reducer
:class:`SharedNamespace` views that satisfy the
:class:`~repro.core.memo.MemoStore` protocol, so a
:class:`~repro.core.memo.MemoTable` runs over shared memory without
knowing it.

Layout (all integers little-endian)::

    [header][slot index][data region ...........................]

* **header** — magic/version, the data-region bump pointer, live-byte
  and used-slot counters, and per-namespace ``(live entries, key count)``
  pairs so ``len()`` and ``space()`` are O(1) and, being integer sums,
  independent of insertion order across processes.
* **slot index** — open-addressed (linear probing) ``(key hash, blob
  offset)`` pairs.  Offset 0 means never used (probe stops), offset 1 a
  tombstone (probe continues, slot reusable).
* **data region** — append-only length-prefixed blobs:
  ``[ns, key, key_count, payload length, payload CRC32, payload]`` with
  the payload a pickled :class:`~repro.core.partition.Partition`.  A
  CRC mismatch on read is treated as a missing entry (the table's
  content-fingerprint machinery then recomputes) — bit rot costs work,
  never correctness, mirroring the recovery layer's contract.

Overwrites and deletes leave dead bytes behind; when an insert would not
fit (or the index runs out of fresh slots) the store first **compacts**
— rewrites live blobs densely and rebuilds the index under the lock —
and only raises :class:`~repro.common.errors.MemoStoreFull` when even
the compacted segment cannot take the entry.  ``MemoTable.store`` maps
that to a skipped store: the degradation ladder's recompute end.

One ``multiprocessing.Lock`` (fork-inherited, like the segment) guards
every multi-step operation; entries are immutable once written, so a
reader holding the lock only as long as one probe + copy is sufficient
for serializability.
"""

from __future__ import annotations

import pickle
import struct
import weakref
import zlib
from collections.abc import MutableMapping
from multiprocessing import get_context
from multiprocessing import shared_memory
from typing import Any, Iterator

from repro.common.errors import MemoStoreFull
from repro.core.partition import Partition

_MAGIC = 0x534C4D454D4F3101  # "SLMEMO1" | version 1
_U64 = struct.Struct("<Q")
_SLOT = struct.Struct("<QQ")  # (key hash, blob offset)
_BLOB = struct.Struct("<IQIII")  # (ns, key, key_count, payload len, crc)

_EMPTY = 0  # slot offset: never used — a probe chain ends here
_TOMB = 1   # slot offset: deleted — probing continues, slot reusable

_HDR_DATA_HEAD = 8
_HDR_LIVE_BYTES = 16
_HDR_USED_SLOTS = 24
_HDR_NS = 32  # per-namespace (live entries, key count) pairs start here

_KEY_MASK = (1 << 64) - 1


def _mix(ns: int, key: int) -> int:
    """Deterministic 64-bit slot hash of a (namespace, key) pair."""
    h = (key * 0x9E3779B97F4A7C15 + (ns + 1) * 0xBF58476D1CE4E5B9) & _KEY_MASK
    h ^= h >> 29
    return h or 1  # 0 is reserved for empty slots


class SharedMemoStore:
    """One shared segment holding every reducer's memo namespace.

    Create it in the parent *before* forking workers; the segment, its
    mapping, and the lock are all inherited by the fork, so no process
    ever attaches by name.  The store is a process-local handle — it
    must never be pickled (the parallel-safety audit's process-local
    rule); payloads ship through it, not with it.
    """

    def __init__(
        self,
        namespaces: int,
        segment_bytes: int = 64 * 1024 * 1024,
        slots: int = 1 << 14,
    ) -> None:
        if namespaces < 1:
            raise ValueError(f"need at least one namespace, got {namespaces}")
        self.namespaces = namespaces
        self.slots = slots
        self._index_start = _HDR_NS + 16 * namespaces
        self._data_start = self._index_start + slots * _SLOT.size
        if segment_bytes <= self._data_start:
            raise ValueError(
                f"segment of {segment_bytes} bytes cannot hold the header "
                f"and {slots} index slots ({self._data_start} bytes)"
            )
        self._shm = shared_memory.SharedMemory(
            create=True, size=segment_bytes
        )
        self.capacity = self._shm.size
        self._lock = get_context("fork").Lock()
        self._buf = self._shm.buf
        self._buf[: self._data_start] = bytes(self._data_start)
        _U64.pack_into(self._buf, 0, _MAGIC)
        _U64.pack_into(self._buf, _HDR_DATA_HEAD, self._data_start)
        self._finalizer = weakref.finalize(self, _release, self._shm)

    # -- raw header accessors (caller holds the lock) -----------------------

    def _get(self, offset: int) -> int:
        return _U64.unpack_from(self._buf, offset)[0]

    def _set(self, offset: int, value: int) -> None:
        _U64.pack_into(self._buf, offset, value)

    def _ns_base(self, ns: int) -> int:
        if not 0 <= ns < self.namespaces:
            raise ValueError(f"namespace {ns} out of range")
        return _HDR_NS + 16 * ns

    # -- slot probing (caller holds the lock) -------------------------------

    def _probe(self, ns: int, key: int) -> tuple[int | None, int | None]:
        """Find ``(slot of the live entry, first reusable slot)``.

        Either element may be ``None``: no live entry, or no free/
        tombstoned slot anywhere in the (full) table.
        """
        khash = _mix(ns, key)
        reusable: int | None = None
        slot = khash % self.slots
        for _ in range(self.slots):
            base = self._index_start + slot * _SLOT.size
            stored_hash, offset = _SLOT.unpack_from(self._buf, base)
            if offset == _EMPTY:
                return None, slot if reusable is None else reusable
            if offset == _TOMB:
                if reusable is None:
                    reusable = slot
            elif stored_hash == khash:
                blob_ns, blob_key = _BLOB.unpack_from(self._buf, offset)[:2]
                if blob_ns == ns and blob_key == key:
                    return slot, reusable
            slot = (slot + 1) % self.slots
        return None, reusable

    def _slot_offset(self, slot: int) -> int:
        return _SLOT.unpack_from(
            self._buf, self._index_start + slot * _SLOT.size
        )[1]

    def _write_slot(self, slot: int, khash: int, offset: int) -> None:
        _SLOT.pack_into(
            self._buf, self._index_start + slot * _SLOT.size, khash, offset
        )

    # -- blob I/O (caller holds the lock) -----------------------------------

    def _read_blob(self, offset: int) -> tuple[int, int, int, Any | None]:
        """Return ``(ns, key, key_count, value)``; value None on CRC rot."""
        ns, key, key_count, plen, crc = _BLOB.unpack_from(self._buf, offset)
        start = offset + _BLOB.size
        payload = bytes(self._buf[start : start + plen])
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return ns, key, key_count, None
        return ns, key, key_count, pickle.loads(payload)

    def _append_blob(self, ns: int, key: int, value: Partition) -> tuple[int, int, int]:
        """Write a blob at the bump pointer; returns (offset, size, keys).

        Raises :class:`MemoStoreFull` when the segment cannot take it
        even after compaction.
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        size = _BLOB.size + len(payload)
        head = self._get(_HDR_DATA_HEAD)
        if head + size > self.capacity:
            self._compact()
            head = self._get(_HDR_DATA_HEAD)
            if head + size > self.capacity:
                raise MemoStoreFull(
                    f"shared memo segment full: {size}-byte entry does not "
                    f"fit in {self.capacity - head} free bytes"
                )
        key_count = len(value)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        _BLOB.pack_into(self._buf, head, ns, key, key_count, len(payload), crc)
        start = head + _BLOB.size
        self._buf[start : start + len(payload)] = payload
        self._set(_HDR_DATA_HEAD, head + size)
        self._set(_HDR_LIVE_BYTES, self._get(_HDR_LIVE_BYTES) + size)
        return head, size, key_count

    def _blob_size(self, offset: int) -> int:
        plen = _BLOB.unpack_from(self._buf, offset)[3]
        return _BLOB.size + plen

    def _compact(self) -> None:
        """Rewrite live blobs densely and rebuild the index in place.

        Every live blob is re-appended (in its original data order, so
        iteration order survives compaction) into a scratch copy of the
        data region, then the region and index are overwritten.  Runs
        under the caller's lock; O(segment size).
        """
        live: list[tuple[int, int, bytes]] = []
        offset = self._data_start
        head = self._get(_HDR_DATA_HEAD)
        while offset < head:
            size = self._blob_size(offset)
            ns, key = _BLOB.unpack_from(self._buf, offset)[:2]
            slot, _ = self._probe(ns, key)
            if slot is not None and self._slot_offset(slot) == offset:
                live.append(
                    (ns, key, bytes(self._buf[offset : offset + size]))
                )
            offset += size
        # Rebuild: clear the index, then re-append each live blob.
        index_bytes = self.slots * _SLOT.size
        self._buf[self._index_start : self._data_start] = bytes(index_bytes)
        self._set(_HDR_USED_SLOTS, 0)
        cursor = self._data_start
        for ns, key, blob in live:
            self._buf[cursor : cursor + len(blob)] = blob
            khash = _mix(ns, key)
            _, free = self._probe(ns, key)
            assert free is not None  # index was just cleared
            self._write_slot(free, khash, cursor)
            self._set(_HDR_USED_SLOTS, self._get(_HDR_USED_SLOTS) + 1)
            cursor += len(blob)
        self._set(_HDR_DATA_HEAD, cursor)
        self._set(_HDR_LIVE_BYTES, cursor - self._data_start)

    # -- the store operations ------------------------------------------------

    def put(self, ns: int, key: int, value: Partition) -> None:
        self._ns_base(ns)
        if not 0 <= key <= _KEY_MASK:
            raise MemoStoreFull(
                f"key {key:#x} does not fit the shared index's 64-bit keys"
            )
        with self._lock:
            slot, reusable = self._probe(ns, key)
            if slot is None and reusable is None:
                self._compact()
                slot, reusable = self._probe(ns, key)
                if slot is None and reusable is None:
                    raise MemoStoreFull(
                        f"shared memo index full ({self.slots} slots)"
                    )
            offset, size, key_count = self._append_blob(ns, key, value)
            # The append may have compacted the segment, which rebuilds
            # the index and moves every slot — probe again against the
            # rebuilt index.  (Compaction only ever frees slots, so the
            # guard above still holds: a usable slot exists.)
            slot, reusable = self._probe(ns, key)
            base = self._ns_base(ns)
            if slot is not None:
                # Overwrite: retire the old blob's accounting.
                old = self._slot_offset(slot)
                old_keys = _BLOB.unpack_from(self._buf, old)[2]
                self._set(
                    _HDR_LIVE_BYTES,
                    self._get(_HDR_LIVE_BYTES) - self._blob_size(old),
                )
                self._set(base + 8, self._get(base + 8) - old_keys + key_count)
                self._write_slot(slot, _mix(ns, key), offset)
            else:
                assert reusable is not None
                if self._slot_offset(reusable) == _EMPTY:
                    self._set(
                        _HDR_USED_SLOTS, self._get(_HDR_USED_SLOTS) + 1
                    )
                self._write_slot(reusable, _mix(ns, key), offset)
                self._set(base, self._get(base) + 1)
                self._set(base + 8, self._get(base + 8) + key_count)

    def get(self, ns: int, key: int) -> Partition | None:
        self._ns_base(ns)
        if not 0 <= key <= _KEY_MASK:
            return None
        with self._lock:
            slot, _ = self._probe(ns, key)
            if slot is None:
                return None
            offset = self._slot_offset(slot)
            _, _, _, value = self._read_blob(offset)
            if value is None:
                # Payload bit rot: drop the entry; the table recomputes.
                self._tombstone(ns, slot, offset)
                return None
            return value

    def delete(self, ns: int, key: int) -> bool:
        self._ns_base(ns)
        if not 0 <= key <= _KEY_MASK:
            return False
        with self._lock:
            slot, _ = self._probe(ns, key)
            if slot is None:
                return False
            self._tombstone(ns, slot, self._slot_offset(slot))
            return True

    def _tombstone(self, ns: int, slot: int, offset: int) -> None:
        key_count = _BLOB.unpack_from(self._buf, offset)[2]
        self._write_slot(slot, 0, _TOMB)
        self._set(
            _HDR_LIVE_BYTES, self._get(_HDR_LIVE_BYTES) - self._blob_size(offset)
        )
        base = self._ns_base(ns)
        self._set(base, self._get(base) - 1)
        self._set(base + 8, self._get(base + 8) - key_count)

    def keys(self, ns: int) -> list[int]:
        """Live keys of one namespace, in blob (≈ insertion) order."""
        self._ns_base(ns)
        found: list[int] = []
        with self._lock:
            offset = self._data_start
            head = self._get(_HDR_DATA_HEAD)
            while offset < head:
                blob_ns, blob_key = _BLOB.unpack_from(self._buf, offset)[:2]
                if blob_ns == ns:
                    slot, _ = self._probe(blob_ns, blob_key)
                    if slot is not None and self._slot_offset(slot) == offset:
                        found.append(blob_key)
                offset += self._blob_size(offset)
        return found

    def clear(self, ns: int) -> None:
        base = self._ns_base(ns)
        with self._lock:
            for slot in range(self.slots):
                offset = self._slot_offset(slot)
                if offset in (_EMPTY, _TOMB):
                    continue
                if _BLOB.unpack_from(self._buf, offset)[0] == ns:
                    self._write_slot(slot, 0, _TOMB)
                    self._set(
                        _HDR_LIVE_BYTES,
                        self._get(_HDR_LIVE_BYTES) - self._blob_size(offset),
                    )
            self._set(base, 0)
            self._set(base + 8, 0)

    def count(self, ns: int) -> int:
        base = self._ns_base(ns)
        with self._lock:
            return self._get(base)

    def key_count(self, ns: int) -> int:
        base = self._ns_base(ns)
        with self._lock:
            return self._get(base + 8)

    def namespace(self, ns: int) -> "SharedNamespace":
        return SharedNamespace(self, ns)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the segment (idempotent); the owner unlinks it."""
        self._finalizer()

    def __reduce__(self):  # pragma: no cover - defensive
        raise TypeError(
            "SharedMemoStore is a process-local handle and must not be "
            "pickled; workers inherit it through fork"
        )


def _release(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except Exception:
        pass


class SharedNamespace(MutableMapping):
    """One reducer's :class:`~repro.core.memo.MemoStore` view of the store.

    Satisfies the mapping protocol a :class:`~repro.core.memo.MemoTable`
    (and the lifecycle/recovery layers above it) drive, so the table is
    oblivious to which side of a process boundary its entries live on.
    """

    __slots__ = ("store", "ns")

    def __init__(self, store: SharedMemoStore, ns: int) -> None:
        self.store = store
        self.ns = ns

    def __getitem__(self, key: int) -> Partition:
        value = self.store.get(self.ns, key)
        if value is None:
            raise KeyError(key)
        return value

    def __setitem__(self, key: int, value: Partition) -> None:
        self.store.put(self.ns, key, value)

    def __delitem__(self, key: int) -> None:
        if not self.store.delete(self.ns, key):
            raise KeyError(key)

    def __iter__(self) -> Iterator[int]:
        return iter(self.store.keys(self.ns))

    def __len__(self) -> int:
        return self.store.count(self.ns)

    def clear(self) -> None:
        self.store.clear(self.ns)

    def space(self) -> float:
        """O(1): the namespace's key-count sum is maintained at put/delete."""
        return float(self.store.key_count(self.ns))

    def __reduce__(self):  # pragma: no cover - defensive
        raise TypeError(
            "SharedNamespace views must not be pickled; workers reach the "
            "store through the fork-inherited handle"
        )
