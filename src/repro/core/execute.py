"""The unified plan executor: one substrate runs every sub-computation.

Trees *plan*; this module *executes* and *prices*.  Each planner call (a
tree's ``_combine``/``_memo_visit``, a balanced sweep's node through
:meth:`PlanExecutor.combine_pair`, the engine's map and reduce passes)
opens a step of the run's plan and hands it straight to the
:class:`PlanExecutor`, which resolves it in a single pass — the only mode
there is, in the engine and in a worker:

* consult the planner's memo table (plan-level cache edges become
  ``memo_read`` nodes on hit, ``combine`` + ``memo_write`` on miss);
* run the combiner over the live inputs (or forward a pass-through);
* charge the work to the executor's telemetry, into whatever span and
  level mark are open — a node opens neither;
* log each executed node as one record of the run's
  :class:`~repro.core.plan.RunLog` (:meth:`PlanExecutor.log_node`,
  the one place a node is recorded), the first one carrying the step and
  each carrying the very amount it charged.

A tree level's sweep is a :class:`~repro.telemetry.LevelMark` on the
open log, which keeps the range of records the sweep appended; the
per-level table and the Chrome trace read a level's tasks and its work
there (:meth:`~repro.core.plan.RunLog.tasks`).

Executing while planning (instead of batching the whole plan first) keeps
the semantics of the seed path bit-identical — planners may branch on the
*values* that flow through them (e.g. partition emptiness) — while the
plan stays a pure description: a step's atoms are fixed when it opens,
before resolution, so the plan never depends on what the cache held.

The executor also measures what the slider layer's time model consumes —
per-reducer work (via :meth:`PlanExecutor.reducer_scope`) — and opens and
closes each run's log (via :meth:`PlanExecutor.begin_run` /
:meth:`end_run`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.memo import MEMO_READ_COST, MEMO_WRITE_COST
from repro.core.partition import Partition, _priced_by_count, combine_charged
from repro.core.plan import RunLog
from repro.telemetry import Phase, Telemetry

if TYPE_CHECKING:  # pragma: no cover - type-only, avoids a runtime cycle
    from repro.core.base import ContractionTree

@dataclass
class RunExecution:
    """Everything one executed run produced, for reports and the time model."""

    log: RunLog
    #: Per-split charged cost of fresh Map tasks (memo hits charge 0.0).
    map_costs: dict[int, float] = field(default_factory=dict)
    #: Per-reducer work measured while that reducer's scope was open.
    reducer_costs: dict[int, float] = field(default_factory=dict)
    #: What the run was opened with: the engine had been in this
    #: structural state before (see :meth:`PlanExecutor.begin_run`).
    recurring: bool = False

    def reducer_cost_list(self, num_reducers: int) -> list[float]:
        return [self.reducer_costs.get(r, 0.0) for r in range(num_reducers)]


def node_prices(tree: "ContractionTree") -> tuple:
    """What a node of ``tree`` is priced by: its combiner, whether that
    combiner is priced by count, the combine cost factor, the invocation
    overhead and the pass-through weight (a merge pays the overhead, a
    pass-through half of it plus the weight a record it moves)."""
    combiner = tree.combiner
    return (
        combiner,
        _priced_by_count(combiner),
        tree.combine_cost_factor,
        tree.invocation_overhead,
        tree.PASS_THROUGH_WEIGHT,
    )


class PlanExecutor:
    """Runs plan steps: memo resolution, combining, charging, logging.

    One executor is shared by an engine and all of its per-reducer trees;
    a standalone tree builds a private one.  Between :meth:`begin_run` and
    :meth:`end_run` the run's log collects one record an executed node,
    and inside :meth:`background` (pre-processing between windows) a log
    of its own does; otherwise steps execute without being logged.
    """

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        #: Where every step charges and every level mark tallies: the
        #: engine's recorder, or a private one for a standalone tree.
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(label="executor")
        )
        #: The open run's log, or background's (None otherwise).
        self.log: RunLog | None = None
        #: The reducer the nodes logged now are attributed to.
        self.reducer: int | None = None
        #: The open step's atoms, until its first node carries them.
        self._step: tuple | None = None
        self._map_costs: dict[int, float] = {}
        self._reducer_costs: dict[int, float] = {}
        #: The open run's ``recurring`` verdict (False outside a run).
        self.recurring = False

    # -- run lifecycle -------------------------------------------------------

    @property
    def active(self) -> bool:
        return self.log is not None

    def begin_run(self, label: str = "", recurring: bool = False) -> RunLog:
        """Open a run: a fresh log.

        ``recurring`` is the caller's verdict that the engine has been in
        this run's structural state before.  The executor runs every run
        the same way and only carries the verdict: the execution backend
        reads it off the open run (its first dispatch rung) and
        :meth:`end_run` hands it back.
        """
        self.log = RunLog(label)
        self.reducer = self._step = None
        self.recurring = recurring
        self._map_costs = {}
        self._reducer_costs = {}
        return self.log

    def end_run(self) -> RunExecution:
        """Close the run; returns its log plus measurements.  A log with
        level marks is kept by the telemetry's current span, the run's
        window-update span, for the per-level table and the trace."""
        log, self.log = self.log, None
        if log is None:
            raise RuntimeError("end_run called with no open run")
        if log.marks:
            self.telemetry.keep_log(log)
        self.reducer = self._step = None
        recurring, self.recurring = self.recurring, False
        return RunExecution(
            log=log,
            map_costs=self._map_costs,
            reducer_costs=self._reducer_costs,
            recurring=recurring,
        )

    @contextmanager
    def background(self):
        """Log the enclosed steps — background pre-processing, between
        runs — to a log of their own, which no run's plan or record reads
        and the telemetry's current span (the background phase span)
        keeps if a level was swept, as :meth:`end_run` does.  On exit no
        log is open: :attr:`active` is False again, as it was."""
        log = self.log = RunLog("background")
        try:
            yield
        finally:
            if log.marks:
                self.telemetry.keep_log(log)
            self.log = self._step = None

    @contextmanager
    def reducer_scope(self, reducer: int):
        """Attribute the enclosed work (and logged nodes) to ``reducer``.

        The measured work delta accumulates across scopes for the same
        reducer — a run opens one scope for the contraction pass and a
        second for the reduce pass — feeding the wave time model's
        per-reduce-task imbalance.
        """
        before = self.telemetry.total()
        previous, self.reducer = self.reducer, reducer
        try:
            yield
        finally:
            self.reducer = previous
            self._reducer_costs[reducer] = self._reducer_costs.get(
                reducer, 0.0
            ) + (self.telemetry.total() - before)

    def record_map_cost(self, split_uid: int, cost: float) -> None:
        """Record the charged cost of one Map step's resolution."""
        self._map_costs[split_uid] = cost

    # -- the log -------------------------------------------------------------

    def open_step(
        self,
        op: str,
        label: str,
        phase: Phase,
        n_inputs: int = 1,
        memo_uid: int | None = None,
        cost_scale: float = 1.0,
    ) -> None:
        """Open a plan step (no-op outside a run): its atoms ride the
        next node logged."""
        log = self.log
        if log is not None:
            log.steps += 1
            self._step = (op, label, phase, n_inputs, memo_uid, cost_scale)

    def log_node(
        self,
        kind: str | None,
        phase: Phase | None,
        label: object,
        cost: float,
        data_size: float,
        memo_hit: bool = False,
        split_uid: int | None = None,
        memo_uid: int | None = None,
        live: int = 0,
    ) -> None:
        """Append one executed node to the open run's log (no-op outside
        a run): every record of a run goes through here.  ``label`` is a
        ``reduce`` node's key, unformatted; ``live`` counts the non-empty
        partitions the node read; a ``kind`` of ``None`` is
        :meth:`close_step`'s plan-only record."""
        log = self.log
        if log is not None:
            log.records.append((
                kind, phase, label, cost, data_size, memo_hit, self.reducer,
                split_uid, memo_uid, live, self._step,
            ))
            self._step = None

    def close_step(self) -> None:
        """Close the open step: one that executed no node — a ``reduce``
        step over an empty root — is logged as a plan-only record."""
        log = self.log
        if log is not None and self._step is not None:
            self.log_node(None, None, "", 0.0, 0.0)

    # -- sub-computation execution ------------------------------------------

    def combine(  # analysis: charge-in-caller-span (the level mark)
        self,
        tree: "ContractionTree",
        parts: Sequence[Partition],
        phase: Phase = Phase.CONTRACTION,
        memo_uid: int | None = None,
        cost_scale: float = 1.0,
        node: str = "",
    ) -> Partition:
        """Plan and run one (possibly memoized) combiner invocation.

        ``cost_scale`` discounts the charged cost when the merge
        piggybacks on work another task performs anyway (e.g. the Reduce
        task's own merge pass consuming a root-and-delta union in split
        processing).  ``node`` names the sub-computation's position in
        the planner's level structure.
        """
        self.open_step("combine", node, phase, len(parts), memo_uid, cost_scale)
        recording = self.log is not None
        telemetry = self.telemetry
        if memo_uid is not None:
            cached = tree.memo.lookup(memo_uid)
            if cached is not None:
                tree.stats.combiner_reuses += 1
                telemetry.charge(Phase.MEMO_READ, MEMO_READ_COST)
                if recording:
                    self.log_node(
                        "memo_read", Phase.MEMO_READ,
                        node or f"memo:{memo_uid:#x}", MEMO_READ_COST,
                        float(len(cached)), True, memo_uid=memo_uid,
                    )
                return cached
        result = self._resolve(
            tree, [p for p in parts if p], phase, node, node_prices(tree),
            cost_scale, memo_uid,
        )
        if memo_uid is not None:
            tree.memo.store(memo_uid, result)
            telemetry.charge(Phase.MEMO_WRITE, MEMO_WRITE_COST)
            if recording:
                self.log_node(
                    "memo_write", Phase.MEMO_WRITE,
                    f"memo-write:{memo_uid:#x}", MEMO_WRITE_COST,
                    float(len(result)), memo_uid=memo_uid,
                )
        return result

    def combine_pair(
        self,
        tree: "ContractionTree",
        left: Partition,
        right: Partition,
        phase: Phase,
        node: str,
        prices: tuple,
    ) -> Partition:
        """A balanced tree's node over its two children: :meth:`combine`
        with no memo and no discount, its step opened in place and its
        live inputs read off the children's entries.  ``prices`` is
        :func:`node_prices` of ``tree``, which its sweep takes once."""
        log = self.log
        if log is not None:
            log.steps += 1
            self._step = ("combine", node, phase, 2, None, 1.0)
        if left.entries:
            live = (left, right) if right.entries else (left,)
        else:
            live = (right,) if right.entries else ()
        return self._resolve(tree, live, phase, node, prices, 1.0, None)

    def _resolve(  # analysis: charge-in-caller-span (the level mark)
        self,
        tree: "ContractionTree",
        live: Sequence[Partition],
        phase: Phase,
        node: str,
        prices: tuple,
        cost_scale: float,
        memo_uid: int | None,
    ) -> Partition:
        """Run one invocation over its non-empty inputs, ``live``: charge
        it and log it as its node.  A lone input passes through, none
        combine to the empty partition (charging nothing), and two or
        more merge (:func:`~repro.core.partition.combine_charged`)."""
        tree.stats.combiner_invocations += 1
        combiner, by_count, cost_factor, overhead, pass_weight = prices
        if len(live) == 1:
            # A pass-through node (single live child): no merge runs, but
            # the child's data still moves through the tree position — on a
            # real cluster every tree node spills and copies its input, so
            # an overly tall tree is not free even where siblings are void.
            value = live[0]
            weight = (
                float(len(value.entries))
                if by_count
                else value.record_weight(combiner)
            )
            charge = cost_scale * (0.5 * overhead + pass_weight * weight)
            self.telemetry.charge(phase, charge)
            if self.log is not None:
                self.log_node(
                    "pass_through", phase, node, charge,
                    float(len(value.entries)), live=1,
                )
            return value
        if live:
            result, charge = combine_charged(
                live, combiner, self.telemetry, phase,
                cost_factor * cost_scale, overhead * cost_scale, by_count,
            )
        else:
            result, charge = Partition.empty(), 0.0
        if self.log is not None:
            self.log_node(
                "combine", phase, node, charge, float(len(result.entries)),
                memo_uid=memo_uid, live=len(live),
            )
        return result

    def memo_visit(  # analysis: charge-in-caller-span (the level mark)
        self, value: Partition, cost: float, node: str = ""
    ) -> None:
        """Plan and charge a memoized result moving through the tree —
        the strawman's per-node visit cost on positional reuse."""
        self.open_step("visit", node, Phase.MEMO_READ)
        self.telemetry.charge(Phase.MEMO_READ, cost)
        if self.log is not None:
            self.log_node(
                "memo_read", Phase.MEMO_READ, node, cost,
                float(len(value)), True,
            )
