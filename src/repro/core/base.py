"""Common interface for contraction trees.

A contraction tree manages one reducer partition's sub-computations.  The
Slider engine drives it through the window lifecycle of Algorithm 1:
``initial_run`` builds the tree from all leaves, then each slide calls
``advance(added, removed)`` which deletes old leaves, inserts new ones,
propagates the change, and returns the new root partition to feed the
Reduce function.

Trees are *planners*: every sub-computation flows through
:meth:`ContractionTree._combine` (a balanced tree's node, through
:meth:`~repro.core.execute.PlanExecutor.combine_pair`), which opens a plan
step on the shared :class:`~repro.core.execute.PlanExecutor` — the single
place where memo resolution, combiner execution, work charging, and
logging happen.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.common.errors import CombinerContractError
from repro.core.execute import PlanExecutor, node_prices
from repro.core.memo import MemoTable
from repro.core.partition import Partition, combine_partitions, count_keys
from repro.telemetry import LevelMark, Phase

if TYPE_CHECKING:  # avoid a runtime cycle with repro.mapreduce
    from repro.mapreduce.combiners import Combiner


@dataclass
class TreeStats:
    """Counters that expose how much a tree recomputed versus reused."""

    combiner_invocations: int = 0
    combiner_reuses: int = 0
    height: int = 0
    leaves: int = 0


class ContractionTree(ABC):
    """Base class: a per-reducer incremental combiner tree.

    Subclasses implement ``initial_run`` and ``advance``.  All combiner
    work must flow through the executor (:meth:`_combine`, or a balanced
    sweep's ``combine_pair``) so that work accounting, memo
    I/O costs, and the invocation counters stay consistent across
    variants.
    """

    #: Set by subclasses that only support restricted slides.
    supports_remove: bool = True
    requires_commutative: bool = False

    #: Fixed work charged per real combiner invocation: the task-launch and
    #: data-movement constant a sub-computation costs on a real cluster.
    DEFAULT_INVOCATION_OVERHEAD = 2.0
    #: Per-record data-movement charge when a node passes a single live
    #: child through (relative to a real merge's per-record cost of ~1).
    PASS_THROUGH_WEIGHT = 0.2

    #: The process-local collaborators a tree is handed.  Every other
    #: attribute is its :meth:`state`.
    COLLABORATORS = ("executor", "memo")

    def __init__(
        self,
        combiner: Combiner,
        memo: MemoTable | None = None,
        combine_cost_factor: float = 1.0,
        executor: PlanExecutor | None = None,
    ) -> None:
        if not combiner.associative:
            raise CombinerContractError(
                "contraction trees require an associative combiner"
            )
        self.combiner = combiner
        self.memo = memo if memo is not None else MemoTable()
        self.combine_cost_factor = combine_cost_factor
        self.invocation_overhead = self.DEFAULT_INVOCATION_OVERHEAD
        self.stats = TreeStats()
        self._ran_initial = False
        #: position -> node value: the results a positional variant keeps
        #: between runs (empty for the variants that memoize by content).
        #: A plain ``dict``, written only by a balanced tree's sweep (a
        #: node in place, :meth:`BalancedTree._propagate`) and through
        #: :meth:`_replace_nodes`, which keep ``_cache_keys`` beside it.
        self._cache: dict[tuple[int, int], Any] = {}
        #: Keys held over all of ``_cache``: a plain int in the tree's own
        #: state, so it crosses the process seam and comes back with it.
        self._cache_keys = 0
        #: The unified plan executor every sub-computation flows through,
        #: and whose telemetry it charges.  The engine injects its shared
        #: executor; a standalone tree runs on a private one.
        self.executor = executor if executor is not None else PlanExecutor()

    # -- lifecycle ---------------------------------------------------------

    @abstractmethod
    def initial_run(self, leaves: Sequence[Partition]) -> Partition:
        """Build the tree over ``leaves`` and return the root partition."""

    @abstractmethod
    def advance(
        self, added: Sequence[Partition], removed: int
    ) -> Partition:
        """Slide the window: drop ``removed`` leaves from the front, append
        ``added`` at the back, propagate, and return the new root."""

    @abstractmethod
    def window_leaves(self) -> list[Partition]:
        """The current window's leaf partitions, in window order."""

    @abstractmethod
    def root(self) -> Partition:
        """The current root partition (after the last run)."""

    def plan_structure_key(self) -> tuple | None:
        """A hashable key for the tree state the next plan's shape depends on.

        Together with the window motion ``(len(added), removed)``, the key
        must *fully* determine the step sequence the next ``advance`` will
        emit (structurally: content ids masked).  The slider layer keeps
        the set of keys it has advanced from, and the process backend
        dispatches only an advance whose key is in it.

        The default ``None`` declares the variant's plans data-dependent
        (randomized coins hash leaf *content*; the strawman branches on
        positional cache hits against content uids) and therefore
        uncacheable.
        """
        return None

    def state(self) -> dict[str, Any]:
        """The tree's own attributes, without its ``COLLABORATORS``:
        what the process seam ships, a checkpoint captures and the
        restore sweep verifies.  An instance attribute that shadows one
        of the class's methods (a profiler's wrapper) is behaviour, not
        state, and is left out too."""
        klass = type(self)
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in self.COLLABORATORS
            and not callable(getattr(klass, key, None))
        }

    # -- retained space ------------------------------------------------------

    def _replace_nodes(self, nodes: dict[tuple[int, int], Any], keys: int) -> None:
        """Swap in a whole new cache whose values hold ``keys`` keys."""
        self._cache = nodes
        self._cache_keys = keys

    def space(self) -> float:
        """Keys this tree retains between runs: its memo table's plus its
        positional cache's.  Read from counts kept where each is written,
        never by walking either."""
        return self.memo.space() + self._cache_keys

    def recount(self) -> float:
        """:meth:`space` re-derived by walking what is retained — O(state).

        Resets the cache count from the cache itself, which is what a
        restore needs after setting ``_cache`` wholesale; the tests hold
        :meth:`space` to this after every step.  Never on the advance path.
        """
        self._cache_keys = count_keys(self._cached_partitions())
        return float(count_keys(self.memo.entries.values())) + self._cache_keys

    def _cached_partitions(self) -> Iterable[Partition]:
        """The partitions ``_cache`` holds (the strawman caches triples)."""
        return self._cache.values()

    # -- shared machinery ----------------------------------------------------

    def _level_mark(self, tree: str, level: int) -> LevelMark:
        """A level mark for one level's contraction sweep, as a ``with``
        scope: it keeps on the open log (a run's, or background's) the
        range of records the sweep appends, its nodes, whose costs are
        the level's work; the per-level work table
        (:mod:`repro.telemetry.worktable`) aggregates the marks and their
        records to check the asymptotic-analysis bounds.  It opens no span.
        """
        executor = self.executor
        return LevelMark(executor.telemetry, executor.log, tree, level)

    def _combine(
        self,
        parts: Sequence[Partition],
        phase: Phase = Phase.CONTRACTION,
        memo_uid: int | None = None,
        cost_scale: float = 1.0,
        node: str = "",
    ) -> Partition:
        """Plan one (possibly memoized) combiner invocation over ``parts``.

        The step is opened on and resolved by the unified executor (memo
        lookup, combine, charge, log) — the tree itself never computes.

        ``cost_scale`` discounts the charged cost when the merge piggybacks
        on work another task performs anyway (e.g. the Reduce task's own
        merge pass consuming a root-and-delta union in split processing).

        ``node`` names this sub-computation's position in the tree's own
        level structure; it labels both the plan step and the record the
        executor logs.
        """
        return self.executor.combine(
            self,
            parts,
            phase=phase,
            memo_uid=memo_uid,
            cost_scale=cost_scale,
            node=node,
        )

    def _memo_visit(
        self, value: Partition, cost: float, node: str = ""
    ) -> None:
        """Plan a memoized result moving through the tree — the strawman's
        per-node visit cost on reuse; the executor charges and records it."""
        self.executor.memo_visit(value, cost, node=node)

    def _check_initial(self, done: bool) -> None:
        if done and self._ran_initial:
            raise RuntimeError("initial_run may only be called once")
        if not done and not self._ran_initial:
            raise RuntimeError("advance called before initial_run")
        self._ran_initial = True

    @staticmethod
    def _check_removed(removed: int, size: int) -> None:
        """A slide drops between none and all of the ``size`` leaves."""
        if removed < 0:
            raise ValueError("removed must be non-negative")
        if removed > size:
            raise ValueError(f"cannot remove {removed} of {size} leaves")

    def reference_root(self) -> Partition:
        """Recompute the root non-incrementally (for verification only).

        Charges no work; used by tests and invariant checks to confirm
        that incremental maintenance matches batch recomputation.
        """
        return combine_partitions(self.window_leaves(), self.combiner)


class BalancedTree(ContractionTree):
    """An array-indexed balanced binary tree, the folding (§3.1) and the
    rotating (§4.1) tree: node ``(level, index)`` has the children
    ``(level - 1, 2 * index)`` and ``(level - 1, 2 * index + 1)``, level 0
    is the variant's row of leaf slots (:meth:`_leaf_row`), the levels
    above it are ``_cache`` and ``(_height, 0)`` is the root.  A variant
    moves leaves in its row; :meth:`_propagate` recomputes."""

    #: Names the tree in its nodes' labels and its level marks.
    TAG = ""

    _height: int

    @property
    def height(self) -> int:
        return self._height

    @abstractmethod
    def _leaf_row(self) -> Sequence[Partition | None]:
        """Level 0 by slot: ``None`` in a void slot.  A slot past the end
        of the row reads as void too."""

    def _propagate(
        self, dirty_leaves: set[int], phase: Phase = Phase.CONTRACTION
    ) -> None:
        """Recompute the internal nodes on the root paths of dirty leaves.

        Each node is one :meth:`PlanExecutor.combine_pair` call over its
        children, read straight from the leaf row (level 1) or ``_cache``,
        and its value is written to ``_cache`` in place, ``_cache_keys``
        beside it.  An advance that changed no leaf walks no level."""
        if not dirty_leaves:
            return
        tag = self.TAG
        row = self._leaf_row()
        width = len(row)
        cache = self._cache
        empty = Partition.empty()
        combine_pair = self.executor.combine_pair
        prices = node_prices(self)
        dirty = dirty_leaves
        for level in range(1, self._height + 1):
            parents = {index // 2 for index in dirty}
            below = level - 1
            with self._level_mark(tag, level):
                for parent in parents:
                    index = parent * 2
                    if below:
                        left = cache.get((below, index), empty)
                        right = cache.get((below, index + 1), empty)
                    else:
                        left = row[index] if index < width else None
                        right = row[index + 1] if index + 1 < width else None
                        if left is None:
                            left = empty
                        if right is None:
                            right = empty
                    value = combine_pair(
                        self, left, right, phase, f"{tag}:L{level}.{parent}", prices
                    )
                    position = (level, parent)
                    old = cache.get(position)
                    keys = len(value.entries)
                    if old is not None:
                        keys -= len(old.entries)
                    cache[position] = value
                    self._cache_keys += keys
            dirty = parents

    def _node_value(
        self, level: int, index: int, row: Sequence[Partition | None]
    ) -> Partition:
        """Node ``(level, index)``, reading level 0 from ``row``; a void or
        absent node is the combiner's identity."""
        if level == 0:
            leaf = row[index] if index < len(row) else None
            return leaf if leaf is not None else Partition.empty()
        return self._cache.get((level, index), Partition.empty())

    def _tree_root(self) -> Partition:
        return self._node_value(self._height, 0, self._leaf_row())


class LeafListTree(ContractionTree):
    """A tree rebuilt over its window's leaf list on every run, the
    randomized (§3.2) and the strawman (§2) tree: it keeps the list and
    the last root, and a variant says only how it builds (:meth:`_build`)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._leaves: list[Partition] = []
        self._root = Partition.empty()

    def initial_run(self, leaves: Sequence[Partition]) -> Partition:
        self._check_initial(done=True)
        self._leaves = list(leaves)
        self._root = self._build()
        return self._root

    def advance(self, added: Sequence[Partition], removed: int) -> Partition:
        self._check_initial(done=False)
        self._check_removed(removed, len(self._leaves))
        self._leaves = self._leaves[removed:] + list(added)
        self._root = self._build()
        return self._root

    def window_leaves(self) -> list[Partition]:
        return list(self._leaves)

    def root(self) -> Partition:
        return self._root

    @abstractmethod
    def _build(self) -> Partition:
        """Build the tree over ``_leaves`` and return its root."""
