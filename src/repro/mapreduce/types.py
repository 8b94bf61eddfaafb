"""Core data-plane types: records and input splits.

A *split* is the unit of input handled by one Map task (§2.1).  Sliding
windows are sequences of splits: the window slides by dropping splits from
the front and appending new splits at the back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.common.hashing import content_id

# A record is any value a Map function can consume: a line of text, a point,
# a log entry tuple.  Records must be stably hashable (see common.hashing).
Record = Any


@dataclass(frozen=True)
class Split:
    """An immutable input split.

    ``uid`` is a stable content-derived identity used for memoizing the Map
    task that processed this split: if the same split appears in the next
    window, its Map output is reused without re-running the Map function.
    """

    uid: int
    records: tuple[Record, ...]
    label: str = ""

    @staticmethod
    def from_records(records: Iterable[Record], label: str = "") -> "Split":
        records = tuple(records)
        uid = content_id("split", label, records)
        return Split(uid=uid, records=records, label=label)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Split({self.label or self.uid}, {len(self.records)} records)"


def make_splits(
    records: Sequence[Record], split_size: int, label_prefix: str = "s"
) -> list[Split]:
    """Chop a record sequence into fixed-size splits.

    Mirrors how an HDFS input is chopped into fixed-size chunks, each
    handled by one Map task.
    """
    if split_size <= 0:
        raise ValueError(f"split_size must be positive, got {split_size}")
    splits = []
    for start in range(0, len(records), split_size):
        chunk = records[start : start + split_size]
        splits.append(
            Split.from_records(chunk, label=f"{label_prefix}{start // split_size}")
        )
    return splits


@dataclass
class SplitWindow:
    """A mutable ordered window of splits with front-drop/back-append slides.

    Beside the order it keeps how many times each uid is in the window
    (a split uid is a content id, so the same split can sit in a window
    twice) and which uids have left altogether since they were last
    taken: a collector evicts exactly those, and never has to compare
    the whole window with what it retains.
    """

    splits: list[Split] = field(default_factory=list)
    #: uid -> how many of ``splits`` carry it.
    counts: dict[int, int] = field(init=False, repr=False)
    #: uids whose count fell to zero and has not risen again since
    #: :meth:`take_departed` last ran.
    departed: set[int] = field(init=False, repr=False, default_factory=set)

    def __post_init__(self) -> None:
        self.counts = {}
        given, self.splits = self.splits, []
        self.append(given)

    def append(self, new_splits: Sequence[Split]) -> None:
        self.splits.extend(new_splits)
        counts = self.counts
        for split in new_splits:
            uid = split.uid
            counts[uid] = counts.get(uid, 0) + 1
            self.departed.discard(uid)

    def drop_front(self, count: int) -> list[Split]:
        if count < 0:
            raise ValueError("count must be non-negative")
        if count > len(self.splits):
            raise ValueError(
                f"cannot drop {count} splits from a window of {len(self.splits)}"
            )
        dropped, self.splits = self.splits[:count], self.splits[count:]
        counts = self.counts
        for split in dropped:
            uid = split.uid
            if counts[uid] == 1:
                del counts[uid]
                self.departed.add(uid)
            else:
                counts[uid] -= 1
        return dropped

    def take_departed(self) -> set[int]:
        """The uids that left the window since the last call, handed over."""
        departed, self.departed = self.departed, set()
        return departed

    def __len__(self) -> int:
        return len(self.splits)

    def __iter__(self):
        return iter(self.splits)

    def total_records(self) -> int:
        return sum(len(s) for s in self.splits)
