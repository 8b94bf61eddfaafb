"""Memo tables: content-addressed storage for sub-computation results.

Every contraction-tree node result is memoized under a stable content id
derived from its inputs.  A hit means the Combiner invocation is skipped
entirely (only a small memo-read cost is charged); a miss runs the combiner
and stores the result.  The cluster layer wraps this table with the
distributed in-memory cache and its fault-tolerant replicas (§6).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Iterator, Mapping, Protocol, runtime_checkable

from repro.common.errors import MemoStoreFull
from repro.core.partition import Partition
from repro.metrics import Phase, WorkMeter
from repro.telemetry import Telemetry

__all__ = [
    "DictMemoStore",
    "MemoBacking",
    "MemoStats",
    "MemoStore",
    "MemoStoreFull",
    "MemoTable",
]


@dataclass
class MemoStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Entries that failed fingerprint verification and were dropped.
    corruptions: int = 0
    #: Stores skipped because the memo budget was exhausted.
    skipped_stores: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit; 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def absorb(self, other: "MemoStats") -> "MemoStats":
        """Add another stats record into this one (cross-process merge).

        Every field is an integer count, so the merge is exact,
        associative, and order-independent — worker deltas can fold into
        the parent's table in any grouping and land on the same totals.
        """
        for spec in fields(self):
            setattr(
                self,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )
        return self

    @classmethod
    def merge(cls, parts: Iterable["MemoStats"]) -> "MemoStats":
        """A fresh record holding the sum of ``parts``."""
        merged = cls()
        for part in parts:
            merged.absorb(part)
        return merged


@runtime_checkable
class MemoStore(Protocol):
    """The storage seam under a :class:`MemoTable`.

    A store is a mutable uid -> :class:`Partition` mapping plus an O(1)
    :meth:`space` summary.  Two implementations ship: the in-process
    :class:`DictMemoStore` (the default, bit-identical to the historical
    plain dict) and the cross-process
    :class:`~repro.core.sharedmem.SharedMemoStore` namespace view, which
    no engine sits on any more (see that module).  A bounded store signals
    exhaustion by raising
    :class:`~repro.common.errors.MemoStoreFull` from ``__setitem__`` —
    the table degrades to recomputation instead of failing.
    """

    def __getitem__(self, uid: int) -> Partition: ...

    def __setitem__(self, uid: int, value: Partition) -> None: ...

    def __delitem__(self, uid: int) -> None: ...

    def __iter__(self) -> Iterator[int]: ...

    def __len__(self) -> int: ...

    def __contains__(self, uid: object) -> bool: ...

    def get(self, uid: int, default: "Partition | None" = None) -> "Partition | None": ...

    def pop(self, uid: int, default: "Partition | None" = None) -> "Partition | None": ...

    def items(self) -> Iterable[tuple[int, Partition]]: ...

    def values(self) -> Iterable[Partition]: ...

    def clear(self) -> None: ...

    def space(self) -> float: ...


class DictMemoStore(dict):
    """The default in-process store: a plain dict plus the store protocol.

    Subclassing ``dict`` keeps reads and iteration exactly as fast and
    as ordered as the seed's bare dict.  The four mutating verbs of the
    protocol (``store[uid] = p``, ``del store[uid]``, ``pop``, ``clear``)
    also keep the sum :meth:`space` returns, so it never walks the
    entries; ``update`` / ``setdefault`` / ``popitem`` would bypass the
    sum and are not part of the protocol.
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
    in-memory distributed cache and the persistent replicated layer.
    """

    entries: MemoStore = field(default_factory=DictMemoStore)
    stats: MemoStats = field(default_factory=MemoStats)
    backing: "MemoBacking | None" = None
    #: Telemetry backbone to mirror hit/miss/eviction counters into.
    telemetry: "Telemetry | None" = None
    #: Fingerprint checks on read: "off", "tainted" (only uids marked by
    #: :meth:`taint`, each verified once), or "paranoid" (every read).
    verify_mode: str = "tainted"
    #: Max retained entries; ``None`` is unbounded.  When the budget is
    #: exhausted new results are recomputed instead of memoized — the
    #: degradation ladder's strawman end.
    capacity: int | None = None
    #: True once the backing store failed; the table then runs local-only
    #: instead of failing the run.
    degraded: bool = False
    _tainted: set[int] = field(default_factory=set)

    def lookup(self, uid: int) -> Partition | None:
        found = self.entries.get(uid)
        if found is not None and not self._verified(uid, found):
            self.entries.pop(uid, None)
            self._backing_delete(uid)
            found = None
        if found is None and self.backing is not None and not self.degraded:
            found = self._backing_fetch(uid)
            if found is not None and not self._verified(uid, found):
                self._backing_delete(uid)
                found = None
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
        if (
            self.capacity is not None
            and uid not in self.entries
            and len(self.entries) >= self.capacity
        ):
            self.stats.skipped_stores += 1
            if self.telemetry is not None:
                self.telemetry.count("memo.skipped_stores")
                if self.stats.skipped_stores == 1:
                    self.telemetry.instant(
                        "memo.budget_exhausted", capacity=self.capacity
                    )
            return
        try:
            self.entries[uid] = value
        except MemoStoreFull:
            # A bounded store (e.g. the shared-memory segment) is full:
            # same degradation ladder as budget exhaustion — recompute
            # next time instead of failing the run.
            self.stats.skipped_stores += 1
            if self.telemetry is not None:
                self.telemetry.count("memo.skipped_stores")
                if self.stats.skipped_stores == 1:
                    self.telemetry.instant(
                        "memo.store_full", capacity=self.capacity
                    )
            return
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
        self._tainted.discard(uid)
        self._backing_delete(uid)

    # -- corruption detection and degradation ------------------------------

    def taint(self, uids: "set[int] | None" = None) -> None:
        """Mark entries as suspect: each is fingerprint-verified on its
        next read (and the mark cleared if it passes).

        With no argument, every currently known uid is tainted — the
        eager-verification mode used right after a checkpoint restore.
        """
        if uids is None:
            self._tainted.update(self.entries)
        else:
            self._tainted.update(uids)

    def _verified(self, uid: int, value: Partition) -> bool:
        if self.verify_mode == "off":
            return True
        if self.verify_mode != "paranoid" and uid not in self._tainted:
            return True
        if value.verify_fingerprint():
            self._tainted.discard(uid)
            return True
        self._tainted.discard(uid)
        self.stats.corruptions += 1
        if self.telemetry is not None:
            self.telemetry.count("memo.corruptions")
            self.telemetry.instant("memo.corruption_dropped", uid=uid)
        return False

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
        if self.backing is None or self.degraded:
            return None
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

    def get_or_compute(  # analysis: charge-in-caller-span (tree task span)
        self,
        uid: int,
        compute: Callable[[], Partition],
        meter: WorkMeter | None = None,
        read_cost: float = 0.0,
        write_cost: float = 0.0,
    ) -> Partition:
        """Return the memoized value for ``uid`` or compute and store it.

        ``compute`` is expected to charge its own combiner work to the
        meter; this helper only charges memo I/O.
        """
        found = self.lookup(uid)
        if found is not None:
            if meter is not None and read_cost:
                meter.charge(Phase.MEMO_READ, read_cost)
            return found
        value = compute()
        self.store(uid, value)
        if meter is not None and write_cost:
            meter.charge(Phase.MEMO_WRITE, write_cost)
        return value

    def __len__(self) -> int:
        return len(self.entries)

    def space(self) -> float:
        """Total abstract size of retained results (for space overheads)."""
        return float(self.entries.space())

    def replace_entries(self, mapping: Mapping[int, Partition]) -> None:
        """Reattach a drained entry snapshot onto this table's store.

        The recovery layer checkpoints entries as a plain dict (drained
        from whatever store backed the table when the checkpoint was
        written) and restores them through here, so a checkpoint taken
        under one execution backend reattaches cleanly under another.
        Bypasses capacity/stat accounting: this is state transfer, not
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


class MemoBacking:
    """Interface the cluster cache layer implements to back a MemoTable."""

    def fetch(self, uid: int) -> Partition | None:  # pragma: no cover - interface
        raise NotImplementedError

    def put(self, uid: int, value: Partition) -> None:  # pragma: no cover
        raise NotImplementedError

    def delete(self, uid: int) -> None:  # pragma: no cover
        raise NotImplementedError
