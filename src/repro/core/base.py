"""Common interface for contraction trees.

A contraction tree manages one reducer partition's sub-computations.  The
Slider engine drives it through the window lifecycle of Algorithm 1:
``initial_run`` builds the tree from all leaves, then each slide calls
``advance(added, removed)`` which deletes old leaves, inserts new ones,
propagates the change, and returns the new root partition to feed the
Reduce function.

Trees are *planners*: every sub-computation flows through
:meth:`ContractionTree._combine`, which opens a plan step on the shared
:class:`~repro.core.execute.PlanExecutor` — the single place where memo
resolution, combiner execution, work charging, and logging happen.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.common.errors import CombinerContractError
from repro.core.execute import PlanExecutor
from repro.core.memo import MemoTable
from repro.core.partition import Partition, combine_partitions
from repro.metrics import Phase, WorkMeter
from repro.telemetry import SpanKind

if TYPE_CHECKING:  # avoid a runtime cycle with repro.mapreduce
    from repro.mapreduce.combiners import Combiner


@dataclass
class TreeStats:
    """Counters that expose how much a tree recomputed versus reused."""

    combiner_invocations: int = 0
    combiner_reuses: int = 0
    height: int = 0
    leaves: int = 0

    def reuse_rate(self) -> float:
        total = self.combiner_invocations + self.combiner_reuses
        return self.combiner_reuses / total if total else 0.0


class ContractionTree(ABC):
    """Base class: a per-reducer incremental combiner tree.

    Subclasses implement ``initial_run`` and ``advance``.  All combiner
    work must flow through :meth:`_combine` so that work metering, memo
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

    def __init__(
        self,
        combiner: Combiner,
        meter: WorkMeter | None = None,
        memo: MemoTable | None = None,
        combine_cost_factor: float = 1.0,
        memo_read_cost: float = 0.01,
        memo_write_cost: float = 0.02,
        invocation_overhead: float | None = None,
        executor: PlanExecutor | None = None,
    ) -> None:
        if not combiner.associative:
            raise CombinerContractError(
                "contraction trees require an associative combiner"
            )
        self.combiner = combiner
        self.meter = meter if meter is not None else WorkMeter()
        self.memo = memo if memo is not None else MemoTable()
        self.combine_cost_factor = combine_cost_factor
        self.memo_read_cost = memo_read_cost
        self.memo_write_cost = memo_write_cost
        self.invocation_overhead = (
            invocation_overhead
            if invocation_overhead is not None
            else self.DEFAULT_INVOCATION_OVERHEAD
        )
        self.stats = TreeStats()
        self._ran_initial = False
        #: position -> node value: the results a positional variant keeps
        #: between runs (empty for the variants that memoize by content).
        #: A plain ``dict``, written only through :meth:`_set_node`,
        #: :meth:`_drop_node` and :meth:`_replace_nodes`, which keep
        #: ``_cache_keys`` beside it.
        self._cache: dict[tuple[int, int], Any] = {}
        #: Keys held over all of ``_cache``: a plain int in the tree's own
        #: state, so it crosses the process seam and comes back with it.
        self._cache_keys = 0
        #: The unified plan executor every sub-computation flows through.
        #: The engine injects its shared executor; a standalone tree runs
        #: on a private one over its own meter.
        self.executor = (
            executor if executor is not None else PlanExecutor(meter=self.meter)
        )

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

    # -- retained space ------------------------------------------------------

    @staticmethod
    def _node_keys(value: Any) -> int:
        """Keys one ``_cache`` value holds (the strawman caches triples)."""
        return len(value)

    def _set_node(self, position: tuple[int, int], value: Any) -> None:
        """Cache ``value`` as the node at ``position``."""
        old = self._cache.get(position)
        if old is not None:
            self._cache_keys -= self._node_keys(old)
        self._cache[position] = value
        self._cache_keys += self._node_keys(value)

    def _drop_node(self, position: tuple[int, int]) -> None:
        """Forget the node cached at ``position``."""
        self._cache_keys -= self._node_keys(self._cache.pop(position))

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
        self._cache_keys = sum(map(self._node_keys, self._cache.values()))
        return (
            float(sum(len(p) for p in self.memo.entries.values()))
            + self._cache_keys
        )

    # -- shared machinery ----------------------------------------------------

    def _level_span(self, tree: str, level: int):
        """Open a TREE_LEVEL span around one level's contraction sweep.

        The per-level work table (:mod:`repro.telemetry.worktable`)
        aggregates these spans to check the asymptotic-analysis bounds.
        """
        return self.meter.telemetry.span(
            f"{tree}:L{level}", SpanKind.TREE_LEVEL, tree=tree, level=level
        )

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
        level structure; it labels both the plan step and the task-graph
        node the executor logs.
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

    def reference_root(self) -> Partition:
        """Recompute the root non-incrementally (for verification only).

        Charges no work; used by tests and invariant checks to confirm
        that incremental maintenance matches batch recomputation.
        """
        return combine_partitions(self.window_leaves(), self.combiner, meter=None)
