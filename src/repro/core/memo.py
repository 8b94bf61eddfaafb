"""Memo tables: content-addressed storage for sub-computation results.

Every contraction-tree node result is memoized under a stable content id
derived from its inputs.  A hit means the Combiner invocation is skipped
entirely (only a small memo-read cost is charged); a miss runs the combiner
and stores the result.  A table's entries live in process, in a
:class:`DictMemoStore`; the cluster layer backs the table with the
distributed in-memory cache and its fault-tolerant replicas (§6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.partition import Partition
from repro.telemetry import Telemetry

__all__ = [
    "MEMO_READ_COST",
    "MEMO_WRITE_COST",
    "DictMemoStore",
    "MemoStats",
    "MemoTable",
]

#: Work units a memo hit charges: a tree node served from a memo table, a
#: record of a split whose Map outputs are reused, an unchanged Reduce key.
MEMO_READ_COST = 0.01
#: Work units a tree node's memo store charges.
MEMO_WRITE_COST = 0.02


@dataclass
class MemoStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit; 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class DictMemoStore(dict):
    """A memo table's entries: a plain dict that keeps its own size.

    Subclassing ``dict`` keeps reads and iteration exactly as fast and
    as ordered as the seed's bare dict.  The four mutating verbs a table
    uses (``store[uid] = p``, ``del store[uid]``, ``pop``, ``clear``)
    also keep the sum :meth:`space` returns, so it never walks the
    entries; ``update`` / ``setdefault`` / ``popitem`` would bypass the
    sum and are never called on one.
    """

    #: Keys retained over all stored partitions.
    _space = 0

    def __setitem__(self, uid: int, value: Partition) -> None:
        old = self.get(uid)
        if old is not None:
            self._space -= len(old)
        self._space += len(value)
        super().__setitem__(uid, value)

    def __delitem__(self, uid: int) -> None:
        self._space -= len(self[uid])
        super().__delitem__(uid)

    def pop(self, uid: int, default: Any = None) -> Any:
        found = super().pop(uid, None)
        if found is None:
            return default
        self._space -= len(found)
        return found

    def clear(self) -> None:
        super().clear()
        self._space = 0

    def __reduce__(self) -> tuple:
        # Copies and pickles re-insert the items, which re-derives the sum.
        return (type(self), (), None, None, iter(self.items()))

    def space(self) -> float:
        """Total abstract size (keys retained) of the stored results."""
        return float(self._space)


@dataclass
class MemoTable:
    """A content-addressed result store with optional external backing.

    ``backing`` (when set by the cluster layer) is consulted on local miss
    and written through on store, letting one table transparently span the
    in-memory distributed cache and the persistent replicated layer.  It is
    anything with ``fetch(uid)`` / ``put(uid, value)`` / ``delete(uid)``:
    :class:`~repro.cluster.cache.DistributedMemoCache` in an engine.
    """

    entries: DictMemoStore = field(default_factory=DictMemoStore)
    stats: MemoStats = field(default_factory=MemoStats)
    backing: Any = None
    #: Telemetry backbone to mirror hit/miss/eviction counters into.
    telemetry: "Telemetry | None" = None
    #: True once the backing store failed; the table then runs local-only
    #: instead of failing the run.
    degraded: bool = False

    def lookup(self, uid: int) -> Partition | None:
        found = self.entries.get(uid)
        if found is None and self.backing is not None and not self.degraded:
            found = self._backing_fetch(uid)
            if found is not None:
                self.entries[uid] = found
        if found is None:
            self.stats.misses += 1
            if self.telemetry is not None:
                self.telemetry.count("memo.misses")
        else:
            self.stats.hits += 1
            if self.telemetry is not None:
                self.telemetry.count("memo.hits")
        return found

    def store(self, uid: int, value: Partition) -> None:
        self.entries[uid] = value
        if self.backing is not None and not self.degraded:
            try:
                self.backing.put(uid, value)
            except Exception as exc:
                self._degrade(exc)

    def discard(self, uid: int) -> None:
        if self.entries.pop(uid, None) is not None:
            self.stats.evictions += 1
            if self.telemetry is not None:
                self.telemetry.count("memo.evictions")
        self._backing_delete(uid)

    # -- degradation ---------------------------------------------------------

    def _degrade(self, exc: Exception) -> None:
        self.degraded = True
        if self.telemetry is not None:
            self.telemetry.count("memo.degraded")
            self.telemetry.instant("memo.backing_degraded", error=repr(exc))

    def reset_degraded(self) -> bool:
        """Re-arm a degraded table at the start of a fresh run.

        A backing-store failure flips :attr:`degraded` and the table runs
        local-only for the rest of the run; a new run should try the
        backing again (it may have been repaired or re-replicated in the
        meantime).  Returns True when a degraded table was reset.
        """
        if not self.degraded:
            return False
        self.degraded = False
        if self.telemetry is not None:
            self.telemetry.count("memo.degraded_resets")
            self.telemetry.instant("memo.degraded_reset")
        return True

    def _backing_fetch(self, uid: int) -> Partition | None:
        try:
            return self.backing.fetch(uid)
        except Exception as exc:
            self._degrade(exc)
            return None

    def _backing_delete(self, uid: int) -> None:
        if self.backing is None or self.degraded:
            return
        try:
            self.backing.delete(uid)
        except Exception as exc:
            self._degrade(exc)

    def __len__(self) -> int:
        return len(self.entries)

    def space(self) -> float:
        """Total abstract size of retained results (for space overheads)."""
        return float(self.entries.space())

    def replace_entries(self, mapping: Mapping[int, Partition]) -> None:
        """Reattach a drained entry snapshot onto this table's store.

        The recovery layer checkpoints entries as a plain dict and
        restores them through here, which re-derives the store's size.
        It counts no hit, miss or eviction: this is state transfer, not
        computation.
        """
        self.entries.clear()
        for uid, value in mapping.items():
            self.entries[uid] = value

    def retain_only(self, live_uids: set[int]) -> int:
        """Garbage-collect entries outside ``live_uids``; returns count."""
        dead = [uid for uid in self.entries if uid not in live_uids]
        for uid in dead:
            self.discard(uid)
        return len(dead)

