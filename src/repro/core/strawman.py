"""The strawman contraction tree (§2).

The strawman design memoizes the output of every sub-computation and, on
each run, walks the whole contraction tree over the current window: every
node is *visited*, its memoized output reused when its inputs are unchanged
at that position, and recomputed otherwise.  Two properties make it the
paper's linear-time baseline (§9, "Incremental Computation"):

* memoization is **positional** (task identity = tree position): a window
  slide that drops leaves from the front shifts every surviving leaf's
  position, so almost every internal node sees "changed" inputs and is
  recomputed;
* even a memo hit costs data movement proportional to the node's output
  (the memoized result must be transferred to the contraction phase), so a
  run is never cheaper than a linear visit of the window — "time
  proportional to the size of the whole data, albeit with a small
  constant".

Figure 8 measures self-adjusting contraction trees against exactly this
baseline.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.base import ContractionTree
from repro.core.partition import Partition


class StrawmanTree(ContractionTree):
    """Left-aligned binary tree with positional memoization."""

    def __init__(self, *args, visit_cost: float = 0.15, **kwargs) -> None:
        """``visit_cost``: work units charged per key of a *reused* node's
        output — the data-movement constant of the strawman design."""
        super().__init__(*args, **kwargs)
        self.visit_cost = visit_cost
        # ``_cache`` here maps (level, index) -> (left_uid, right_uid, value).
        self._leaves: list[Partition] = []
        self._root = Partition.empty()

    def initial_run(self, leaves: Sequence[Partition]) -> Partition:
        self._check_initial(done=True)
        self._leaves = list(leaves)
        self._root = self._build()
        return self._root

    def advance(self, added: Sequence[Partition], removed: int) -> Partition:
        self._check_initial(done=False)
        if removed < 0:
            raise ValueError("removed must be non-negative")
        if removed > len(self._leaves):
            raise ValueError(
                f"cannot remove {removed} of {len(self._leaves)} leaves"
            )
        self._leaves = self._leaves[removed:] + list(added)
        self._root = self._build()
        return self._root

    def window_leaves(self) -> list[Partition]:
        return list(self._leaves)

    def root(self) -> Partition:
        return self._root

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _node_keys(value: tuple[int, int, Partition]) -> int:
        return len(value[2])

    def _build(self) -> Partition:
        """Walk the whole tree; reuse positionally-unchanged nodes."""
        level = list(self._leaves)
        height = 0
        fresh: dict[tuple[int, int], tuple[int, int, Partition]] = {}
        keys = 0
        while len(level) > 1:
            next_level: list[Partition] = []
            with self._level_span("straw", height + 1):
                for i in range(0, len(level) - 1, 2):
                    left, right = level[i], level[i + 1]
                    position = (height, i // 2)
                    cached = self._cache.get(position)
                    if cached is not None and cached[:2] == (left.uid, right.uid):
                        value = cached[2]
                        self.stats.combiner_reuses += 1
                        # Data movement for the memoized output (the strawman's
                        # linear visit cost).
                        self._memo_visit(
                            value,
                            self.visit_cost * max(1, len(value)),
                            node=f"straw:L{height}.{i // 2}",
                        )
                    else:
                        value = self._combine(
                            [left, right], node=f"straw:L{height}.{i // 2}"
                        )
                    fresh[position] = (left.uid, right.uid, value)
                    keys += len(value)
                    next_level.append(value)
            if len(level) % 2:
                next_level.append(level[-1])  # odd node promotes unchanged
            level = next_level
            height += 1
        self._replace_nodes(fresh, keys)
        self.stats.height = height
        self.stats.leaves = len(self._leaves)
        return level[0] if level else Partition.empty()

    def live_memo_uids(self) -> set[int]:
        """Positional caching is self-pruning; nothing extra to GC."""
        return set()
