"""The randomized folding tree (§3.2).

Instead of folding/unfolding whole binary subtrees, nodes at each level are
grouped probabilistically, skip-list style: every node ends a group with
probability 1/2, decided by a *deterministic* coin — a stable hash of the
node's content id, the level, and the tree seed.  The tree shape is
therefore a pure function of the current leaf sequence, so:

* the expected height is ``log2`` of the **current** window size (it adapts
  immediately when the window shrinks drastically — the Figure 12 case);
* an incremental run rebuilds the level structure, but every group whose
  membership is unchanged hits the memo table and costs only a memo read;
  only groups at the window edges are recomputed.
"""

from __future__ import annotations

from repro.common.hashing import stable_hash
from repro.core.base import LeafListTree
from repro.core.partition import Partition

#: Chance a node closes its group (the skip-list coin): 1/p is the
#: expected group size.  A coin is a 32-bit draw below the threshold.
BOUNDARY_PROBABILITY = 0.5
_BOUNDARY_THRESHOLD = int(BOUNDARY_PROBABILITY * (1 << 32))

_MAX_LEVELS = 128


class RandomizedFoldingTree(LeafListTree):
    """Skip-list-style contraction tree with deterministic coins."""

    def __init__(
        self,
        *args,
        seed: int = 0,
        auto_gc: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.seed = seed
        self.auto_gc = auto_gc

    @property
    def height(self) -> int:
        return self.stats.height

    # -- internals ---------------------------------------------------------

    def _coin(self, uid: int, level: int) -> bool:
        """Deterministic biased coin: does this node end a group at
        ``level``?  Derived from the node's content id, so the tree shape
        is a pure function of the leaf sequence."""
        draw = stable_hash((uid, level, self.seed), salt="coin") & 0xFFFFFFFF
        return draw < _BOUNDARY_THRESHOLD

    def _build(self) -> Partition:
        """(Re)build the level structure; memo hits skip group recomputation."""
        level: list[tuple[int, Partition]] = [(p.uid, p) for p in self._leaves]
        live_uids: set[int] = set()
        height = 0
        # Group probabilistically until at most two nodes remain, then
        # contract them into the root directly — coin-flipping the last few
        # nodes down would only add expensive near-root levels.
        while len(level) > 2 and height < _MAX_LEVELS:
            with self._level_mark("rft", height + 1):
                next_level: list[tuple[int, Partition]] = []
                group: list[tuple[int, Partition]] = []
                for uid, value in level:
                    group.append((uid, value))
                    if self._coin(uid, height):
                        next_level.append(
                            self._contract_group(height, group, live_uids)
                        )
                        group = []
                if group:
                    next_level.append(self._contract_group(height, group, live_uids))
                if len(next_level) == len(level):
                    # No boundary fired (possible for tiny levels): force one
                    # merge so the construction always converges.
                    next_level = [self._contract_group(height, level, live_uids)]
            level = next_level
            height += 1
        if len(level) > 1:
            with self._level_mark("rft", height + 1):
                level = [self._contract_group(height, level, live_uids)]
            height += 1

        self.stats.height = height
        self.stats.leaves = len(self._leaves)
        if self.auto_gc:
            self.memo.retain_only(live_uids)
        if not level:
            return Partition.empty()
        return level[0][1]

    def _contract_group(
        self,
        level: int,
        group: list[tuple[int, Partition]],
        live_uids: set[int],
    ) -> tuple[int, Partition]:
        child_uids = tuple(uid for uid, _ in group)
        group_uid = stable_hash((level, child_uids), salt="rft-group")
        live_uids.add(group_uid)
        if len(group) == 1:
            # Singleton groups pass through without a combiner invocation.
            return (group_uid, group[0][1])
        value = self._combine(
            [v for _, v in group],
            memo_uid=group_uid,
            node=f"rft:L{level}.g{group_uid & 0xFFFFFF:#x}",
        )
        return (group_uid, value)
