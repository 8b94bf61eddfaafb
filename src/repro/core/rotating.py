"""The rotating contraction tree (§4.1) for fixed-width windows.

``w`` splits are combined into a *bucket*; ``N`` buckets form the leaves of
a balanced binary tree.  Because the window width never changes, a slide
simply replaces the oldest bucket in round-robin order and recomputes the
replaced leaf's root path — ``log2(N)`` combiner invocations.  Rotation
reorders leaves relative to window order, so the combiner must be
commutative as well as associative.

In *split-processing* mode (§4), the predictable rotation lets the tree
pre-combine, in the background, every node that the next update will reuse
(the siblings along the next victim's root path) into a single intermediate
``I``.  The next foreground update then needs just one combiner invocation
(new bucket + ``I``) before Reduce, while the tree-path bookkeeping is
deferred to the following background phase.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import CombinerContractError, WindowError
from repro.core.base import BalancedTree
from repro.core.partition import Partition
from repro.metrics import Phase


class RotatingTree(BalancedTree):
    """Fixed-width window tree with round-robin bucket rotation."""

    TAG = "rot"
    requires_commutative = True

    def __init__(
        self,
        *args,
        bucket_size: int = 1,
        split_mode: bool = False,
        **kwargs,
    ) -> None:
        """``bucket_size``: splits per bucket (the paper's ``w``).
        ``split_mode``: enable background pre-processing."""
        super().__init__(*args, **kwargs)
        if not self.combiner.commutative:
            raise CombinerContractError(
                "rotating contraction trees require a commutative combiner"
            )
        if bucket_size <= 0:
            raise ValueError(f"bucket_size must be positive, got {bucket_size}")
        self.bucket_size = bucket_size
        self.split_mode = split_mode
        self._buckets: list[Partition] = []  # physical slot -> bucket value
        self._bucket_leaves: list[list[Partition]] = []
        self._oldest = 0  # physical slot holding the oldest bucket
        self._height = 0
        self._root = Partition.empty()
        # Split-processing state.
        self._intermediate: Partition | None = None  # pre-combined off-path I
        self._intermediate_slot: int | None = None
        self._pending: tuple[int, Partition] | None = None  # deferred path fix

    # -- lifecycle ---------------------------------------------------------

    def initial_run(self, leaves: Sequence[Partition]) -> Partition:
        self._check_initial(done=True)
        leaves = list(leaves)
        if not leaves:
            raise WindowError("rotating tree needs a non-empty initial window")
        if len(leaves) % self.bucket_size:
            raise WindowError(
                f"initial window of {len(leaves)} splits is not a whole number "
                f"of buckets of {self.bucket_size}"
            )
        for start in range(0, len(leaves), self.bucket_size):
            chunk = leaves[start : start + self.bucket_size]
            self._bucket_leaves.append(list(chunk))
            self._buckets.append(
                self._combine(
                    chunk,
                    phase=Phase.CONTRACTION,
                    node=f"rot:bucket.{len(self._buckets)}",
                )
            )
        count = len(self._buckets)
        self._height = max(0, (count - 1).bit_length())
        self._propagate(set(range(count)))
        self._root = self._tree_root()
        self.stats.leaves = len(leaves)
        self.stats.height = self._height
        return self._root

    def advance(self, added: Sequence[Partition], removed: int) -> Partition:
        self._check_initial(done=False)
        added = list(added)
        if removed != len(added):
            raise WindowError(
                f"fixed-width window: must remove exactly as many splits as "
                f"added (got add={len(added)}, remove={removed})"
            )
        if len(added) % self.bucket_size:
            raise WindowError(
                f"slide of {len(added)} splits is not a whole number of "
                f"buckets of {self.bucket_size}"
            )
        for start in range(0, len(added), self.bucket_size):
            chunk = added[start : start + self.bucket_size]
            self._replace_oldest(chunk)
        return self._root

    def window_leaves(self) -> list[Partition]:
        ordered: list[Partition] = []
        count = len(self._buckets)
        for offset in range(count):
            slot = (self._oldest + offset) % count
            ordered.extend(self._bucket_leaves[slot])
        return ordered

    def root(self) -> Partition:
        return self._root

    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    def plan_structure_key(self) -> tuple | None:
        """Rotation is positional: the victim slot and the split-processing
        state (a pre-combined ``I`` for which slot, a deferred path fix)
        fully determine the next advance's combine sequence."""
        return (
            "rot",
            len(self._buckets),
            self._height,
            self._oldest,
            self.bucket_size,
            self.split_mode,
            self._intermediate_slot if self._intermediate is not None else None,
            self._pending[0] if self._pending is not None else None,
        )

    # -- the slide ---------------------------------------------------------

    def _replace_oldest(self, chunk: list[Partition]) -> None:
        slot = self._oldest
        bucket = self._combine(
            chunk, phase=Phase.CONTRACTION, node=f"rot:bucket.{slot}"
        )
        self._bucket_leaves[slot] = list(chunk)
        self._buckets[slot] = bucket

        if self._intermediate is not None and self._intermediate_slot == slot:
            # Fast foreground path: one combine against the precomputed I.
            self._root = self._combine(
                [bucket, self._intermediate],
                phase=Phase.CONTRACTION,
                node=f"rot:fast-root.{slot}",
            )
            self._intermediate = None
            self._intermediate_slot = None
            self._pending = (slot, bucket)
        else:
            self._apply_pending(Phase.CONTRACTION)
            self._propagate({slot})
            self._root = self._tree_root()
        self._oldest = (slot + 1) % len(self._buckets)

    def background_preprocess(self) -> None:
        """Run the best-effort background phase (§4.1).

        Applies any deferred tree-path update for the bucket replaced in the
        last foreground run, then pre-combines the off-path siblings of the
        *next* victim slot into the intermediate ``I``.  All work here is
        charged to the BACKGROUND phase.
        """
        if not self.split_mode:
            return
        self._apply_pending(Phase.BACKGROUND)
        slot = self._oldest
        siblings = self._off_path_values(slot)
        if siblings:
            self._intermediate = self._combine(
                siblings, phase=Phase.BACKGROUND, node=f"rot:I.{slot}"
            )
        else:
            self._intermediate = Partition.empty()
        self._intermediate_slot = slot

    def _apply_pending(self, phase: Phase) -> None:
        if self._pending is None:
            return
        slot, _bucket = self._pending
        self._pending = None
        self._propagate({slot}, phase)

    # -- level 0 of the balanced sweep ---------------------------------------

    def _leaf_row(self) -> list[Partition]:
        return self._buckets

    def _off_path_values(self, slot: int) -> list[Partition]:
        """Values of the sibling nodes along ``slot``'s root path."""
        siblings: list[Partition] = []
        index = slot
        for level in range(self._height):
            sibling_index = index ^ 1
            value = self._node_value(level, sibling_index, self._buckets)
            if value:
                siblings.append(value)
            index //= 2
        return siblings
