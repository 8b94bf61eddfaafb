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

from itertools import islice
from operator import itemgetter
from typing import Iterable

from repro.core.base import LeafListTree
from repro.core.partition import Partition

#: Work units charged per key of a *reused* node's output: the
#: data-movement constant of the strawman design.
VISIT_COST = 0.15

#: How many builds' worth of nodes :attr:`StrawmanTree._made` remembers.
#: A slide of one leaf brings a level-``h`` node's children back every
#: ``2**h`` builds, so eight builds cover the three lowest levels, where
#: most of the nodes are.
MADE_BUILDS = 8


class StrawmanTree(LeafListTree):
    """Left-aligned binary tree with positional memoization: ``_cache``
    maps ``(level, index)`` to ``(left_uid, right_uid, value)``."""

    #: ``_made`` is a process-local cache, not state: a restored tree
    #: starts with none, and a checkpoint does not carry it.
    COLLABORATORS = LeafListTree.COLLABORATORS + ("_made",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: ``(left uid, right uid)`` -> the uid of their combine, for the
        #: nodes of the last :data:`MADE_BUILDS` builds whose uid was made.
        #: A recomputed node whose children's uids are here takes its uid
        #: from it, not from a fold of its entries: the next level reads it.
        self._made: dict[tuple[int, int], int] = {}

    # -- internals ---------------------------------------------------------

    def _cached_partitions(self) -> Iterable[Partition]:
        return map(itemgetter(2), self._cache.values())

    def _build(self) -> Partition:
        """Walk the whole tree; reuse positionally-unchanged nodes."""
        level = list(self._leaves)
        height = 0
        fresh: dict[tuple[int, int], tuple[int, int, Partition]] = {}
        keys = 0
        made = self._made
        while len(level) > 1:
            next_level: list[Partition] = []
            with self._level_mark("straw", height + 1):
                for i in range(0, len(level) - 1, 2):
                    left, right = level[i], level[i + 1]
                    position = (height, i // 2)
                    pair = (left.uid, right.uid)
                    cached = self._cache.get(position)
                    if cached is not None and cached[:2] == pair:
                        value = cached[2]
                        self.stats.combiner_reuses += 1
                        # Data movement for the memoized output (the strawman's
                        # linear visit cost).
                        self._memo_visit(
                            value,
                            VISIT_COST * max(1, len(value)),
                            node=f"straw:L{height}.{i // 2}",
                        )
                    else:
                        value = self._combine(
                            [left, right], node=f"straw:L{height}.{i // 2}"
                        )
                        if value._uid is None:
                            value._uid = made.get(pair)
                    fresh[position] = (*pair, value)
                    keys += len(value)
                    next_level.append(value)
            if len(level) % 2:
                next_level.append(level[-1])  # odd node promotes unchanged
            level = next_level
            height += 1
        self._replace_nodes(fresh, keys)
        for left_uid, right_uid, value in fresh.values():
            if value._uid is not None:
                made[left_uid, right_uid] = value._uid
        excess = len(made) - MADE_BUILDS * len(fresh)
        for stale in list(islice(made, max(0, excess))):
            del made[stale]
        self.stats.height = height
        self.stats.leaves = len(self._leaves)
        return level[0] if level else Partition.empty()

    def live_memo_uids(self) -> set[int]:
        """Positional caching is self-pruning; nothing extra to GC."""
        return set()
