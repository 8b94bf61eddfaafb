"""The coalescing contraction tree (§4.2) for append-only windows.

Data is only ever appended, so the tree degenerates to a right spine: the
running root coalesces everything seen so far, and each run combines the new
Map outputs into a delta and folds the delta into the root.

In *split-processing* mode the foreground hands Reduce the union of the old
root and the delta directly (the extra merge is charged to the Reduce side),
and the combiner invocation that produces the next run's root is deferred to
the background phase — Figure 5(b).
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import WindowError
from repro.core.base import ContractionTree
from repro.core.partition import Partition
from repro.metrics import Phase


class CoalescingTree(ContractionTree):
    """Append-only tree: a running coalesced root plus per-run deltas."""

    supports_remove = False

    def __init__(self, *args, split_mode: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.split_mode = split_mode
        self._leaves: list[Partition] = []
        self._root = Partition.empty()
        self._reduce_input = Partition.empty()
        self._pending_delta: Partition | None = None

    def initial_run(self, leaves: Sequence[Partition]) -> Partition:
        self._check_initial(done=True)
        self._leaves = list(leaves)
        with self._level_mark("coal", 1):
            self._root = self._combine(
                self._leaves, phase=Phase.CONTRACTION, node="coal:root"
            )
        self._reduce_input = self._root
        self.stats.leaves = len(self._leaves)
        self.stats.height = 1 if self._leaves else 0
        return self._reduce_input

    def advance(self, added: Sequence[Partition], removed: int) -> Partition:
        self._check_initial(done=False)
        if removed:
            raise WindowError("coalescing trees are append-only; cannot remove")
        added = list(added)
        self._leaves.extend(added)
        self.stats.leaves = len(self._leaves)
        if not added:
            self._reduce_input = self._effective_root()
            return self._reduce_input

        with self._level_mark("coal", 1):
            delta = self._combine(added, phase=Phase.CONTRACTION, node="coal:delta")
        if self.split_mode:
            # Catch up if the background phase was skipped (best-effort).
            self._absorb_pending(Phase.CONTRACTION)
            # Foreground: Reduce consumes (root ∪ delta) directly — the
            # merge piggybacks on the Reduce task's own merge pass instead
            # of running (and materializing) a separate combiner, hence the
            # discounted cost (Figure 5b).
            self._reduce_input = self._combine(
                [self._root, delta],
                phase=Phase.REDUCE,
                cost_scale=0.5,
                node="coal:reduce-input",
            )
            self._pending_delta = delta
        else:
            self._root = self._combine(
                [self._root, delta], phase=Phase.CONTRACTION, node="coal:root"
            )
            self._reduce_input = self._root
        return self._reduce_input

    def background_preprocess(self) -> None:
        """Fold the last delta into the root, charged to BACKGROUND (§4.2)."""
        if not self.split_mode:
            return
        self._absorb_pending(Phase.BACKGROUND)

    def window_leaves(self) -> list[Partition]:
        return list(self._leaves)

    def root(self) -> Partition:
        return self._reduce_input

    def plan_structure_key(self) -> tuple | None:
        """The right spine has almost no structure: only the mode and an
        unabsorbed delta steer which combines the next advance emits."""
        return ("coal", self.split_mode, self._pending_delta is not None)

    # -- internals ---------------------------------------------------------

    def _absorb_pending(self, phase: Phase) -> None:
        if self._pending_delta is None:
            return
        delta, self._pending_delta = self._pending_delta, None
        self._root = self._combine(
            [self._root, delta], phase=phase, node="coal:absorb"
        )

    def _effective_root(self) -> Partition:
        if self._pending_delta is not None:
            return self._combine(
                [self._root, self._pending_delta],
                phase=Phase.REDUCE,
                cost_scale=0.5,
                node="coal:reduce-input",
            )
        return self._root
