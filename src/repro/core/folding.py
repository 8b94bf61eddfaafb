"""The self-adjusting folding tree (§3.1) for variable-width windows.

A complete binary tree of capacity ``2^H`` leaves.  Live leaves occupy a
contiguous index range; slots outside it are *void* and act as the
combiner's identity.  New Map outputs fill void slots on the right; dropped
leaves become void on the left.  When the right side runs out of room the
tree *unfolds* (doubles, the old tree becoming the left child of a new
root), and when the entire left half becomes void it *folds* (the right
child is promoted to root) — exactly the expand/contract moves of Figure 2.

Change propagation recomputes only the internal nodes on root paths of
changed leaves, so an incremental run performs O(delta * log window) work.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.base import BalancedTree
from repro.core.partition import Partition


class FoldingTree(BalancedTree):
    """Array-backed complete binary tree with void-leaf folding."""

    TAG = "fold"

    def __init__(self, *args, rebuild_factor: int | None = None, **kwargs) -> None:
        """``rebuild_factor``: if set, a window more than this factor smaller
        than the tree capacity triggers a from-scratch rebuild (the paper's
        simple rebalancing strategy for rare large shrinks, §3.2)."""
        super().__init__(*args, **kwargs)
        if rebuild_factor is not None and rebuild_factor < 2:
            raise ValueError("rebuild_factor must be >= 2 when given")
        self.rebuild_factor = rebuild_factor
        self._slots: list[Partition | None] = []
        self._start = 0  # first live slot
        self._end = 0  # one past the last live slot
        self._height = 0

    # -- public lifecycle ----------------------------------------------------

    def initial_run(self, leaves: Sequence[Partition]) -> Partition:
        self._check_initial(done=True)
        self._build_fresh(list(leaves))
        return self.root()

    def advance(self, added: Sequence[Partition], removed: int) -> Partition:
        self._check_initial(done=False)
        self._check_removed(removed, self.size)

        dirty: set[int] = set()
        self._delete_front(removed, dirty)
        self._insert_back(list(added), dirty)
        self._propagate(dirty)
        self._maybe_fold()

        if self._needs_rebuild():
            self._rebuild()

        self.stats.height = self._height
        self.stats.leaves = self.size
        return self.root()

    def window_leaves(self) -> list[Partition]:
        return [p for p in self._slots[self._start : self._end] if p is not None]

    def root(self) -> Partition:
        return self._tree_root()

    def plan_structure_key(self) -> tuple | None:
        """Plans are a pure function of ``(height, start, end)`` plus motion.

        Dirty-leaf propagation, unfold/fold moves, and the rebuild check
        all derive from the live index range and capacity (``2^height``);
        under a constant slide this state recurs with period ≈ the window
        size, after which every steady-state advance starts from a state
        the engine has seen.
        """
        return ("fold", self._height, self._start, self._end, self.rebuild_factor)

    # -- inspection ----------------------------------------------------------

    @property
    def size(self) -> int:
        return self._end - self._start

    @property
    def capacity(self) -> int:
        return len(self._slots)

    # -- construction --------------------------------------------------------

    def _build_fresh(self, leaves: list[Partition]) -> None:
        count = len(leaves)
        self._height = _ceil_log2(max(count, 1))
        capacity = 1 << self._height
        self._slots = list(leaves) + [None] * (capacity - count)
        self._start, self._end = 0, count
        self._replace_nodes({}, 0)
        self._propagate(set(range(count)))
        self.stats.height = self._height
        self.stats.leaves = count

    def _rebuild(self) -> None:
        """From-scratch rebalance: garbage-collect voids, rebuild compact."""
        self._build_fresh(self.window_leaves())

    def _needs_rebuild(self) -> bool:
        if self.rebuild_factor is None or self.size == 0:
            return False
        return self.capacity > self.rebuild_factor * self.size

    # -- slides ----------------------------------------------------------------

    def _delete_front(self, removed: int, dirty: set[int]) -> None:
        for index in range(self._start, self._start + removed):
            self._slots[index] = None
            dirty.add(index)
        self._start += removed
        if self._start == self._end:
            # Window emptied entirely; reset to a fresh minimal tree.
            self._slots = []
            self._start = self._end = 0
            self._height = 0
            self._replace_nodes({}, 0)
            dirty.clear()

    def _insert_back(self, added: list[Partition], dirty: set[int]) -> None:
        if not added:
            return
        if not self._slots:
            self._build_fresh(added)
            dirty.clear()
            return
        for leaf in added:
            if self._end == self.capacity:
                self._unfold()
            self._slots[self._end] = leaf
            dirty.add(self._end)
            self._end += 1

    def _unfold(self) -> None:
        """Double capacity: the current tree becomes the left child."""
        self._slots.extend([None] * self.capacity)
        self._height += 1
        # Array indexing keeps (level, index) valid for the old (left) half,
        # so the cache carries over untouched; only the new root levels will
        # be recomputed when dirty paths propagate.

    def _maybe_fold(self) -> None:
        """Halve the tree while the whole left half is void (Figure 2, T3)."""
        while self._height > 0 and self._start >= self.capacity // 2:
            half = self.capacity // 2
            self._slots = self._slots[half:]
            self._start -= half
            self._end -= half
            old_height = self._height
            self._height -= 1
            shifted: dict[tuple[int, int], Partition] = {}
            keys = 0
            for (level, index), value in self._cache.items():
                if level >= old_height:
                    continue  # old root level disappears
                offset = 1 << (old_height - 1 - level)
                if index >= offset:
                    shifted[(level, index - offset)] = value
                    keys += len(value)
            self._replace_nodes(shifted, keys)

    # -- level 0 of the balanced sweep ---------------------------------------

    def _leaf_row(self) -> list[Partition | None]:
        return self._slots


def _ceil_log2(n: int) -> int:
    return max(0, (n - 1).bit_length())
