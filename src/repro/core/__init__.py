"""Self-adjusting contraction trees — the paper's primary contribution.

Five tree variants share the :class:`~repro.core.base.ContractionTree`
interface:

* :class:`~repro.core.strawman.StrawmanTree` — the memoization-only baseline
  of §2: a left-aligned binary tree rebuilt over the current leaves each run.
* :class:`~repro.core.folding.FoldingTree` — §3.1, variable-width windows;
  a complete binary tree with void leaves that folds/unfolds by whole
  subtrees.
* :class:`~repro.core.randomized.RandomizedFoldingTree` — §3.2, a skip-list
  style tree whose expected height tracks the *current* window size.
* :class:`~repro.core.rotating.RotatingTree` — §4.1, fixed-width windows;
  buckets rotate round-robin and background pre-processing pre-combines the
  off-path nodes.
* :class:`~repro.core.coalescing.CoalescingTree` — §4.2, append-only
  windows; a right spine with background pre-computation of the next root.
"""

from repro.core.base import ContractionTree, TreeStats
from repro.core.coalescing import CoalescingTree
from repro.core.folding import FoldingTree
from repro.core.memo import MemoTable
from repro.core.partition import Partition, combine_partitions
from repro.core.randomized import RandomizedFoldingTree
from repro.core.rotating import RotatingTree
from repro.core.strawman import StrawmanTree
from repro.core.taskgraph import TaskGraph, TaskNode

__all__ = [
    "ContractionTree",
    "TreeStats",
    "CoalescingTree",
    "FoldingTree",
    "MemoTable",
    "Partition",
    "combine_partitions",
    "RandomizedFoldingTree",
    "RotatingTree",
    "StrawmanTree",
    "TaskGraph",
    "TaskNode",
]
