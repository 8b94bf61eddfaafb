"""The unified plan executor: one substrate runs every sub-computation.

Trees *plan*; this module *executes*.  Each planner call (a tree's
``_combine``/``_memo_visit``, the engine's map and reduce passes) opens a
step of the run's plan and hands it straight to the
:class:`PlanExecutor`, which resolves it in a single pass — the only mode
there is, in the engine and in a worker:

* consult the planner's memo table (plan-level cache edges become
  ``memo_read`` nodes on hit, ``combine`` + ``memo_write`` on miss);
* run the combiner over the live inputs (or forward a pass-through);
* charge the work meter, inside the step's telemetry task span;
* log each executed node as one record of the run's
  :class:`~repro.core.taskgraph.RunLog` (:meth:`PlanExecutor.log_node`,
  the one place a run is recorded), the first one carrying the step.

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

from repro.core.partition import Partition, combine_partitions
from repro.core.poison import PoisonContext
from repro.core.taskgraph import RunLog, content_uids
from repro.metrics import Phase, WorkMeter
from repro.telemetry import SpanKind

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


class PlanExecutor:
    """Runs plan steps: memo resolution, combining, charging, logging.

    One executor is shared by an engine and all of its per-reducer trees;
    a standalone tree builds a private one.  Between :meth:`begin_run` and
    :meth:`end_run` the run's log collects one record an executed node;
    outside a run (e.g. background pre-processing between windows) steps
    execute without being logged, exactly as the seed path behaved.
    """

    def __init__(self, meter: WorkMeter | None = None) -> None:
        self.meter = meter if meter is not None else WorkMeter()
        #: The open run's log (None outside a run).
        self.log: RunLog | None = None
        #: The reducer the nodes logged now are attributed to.
        self.reducer: int | None = None
        #: The open step's atoms, until its first node carries them.
        self._step: tuple | None = None
        #: When set (engine configured a poison policy), combiner failures
        #: are retried and then quarantined instead of aborting the run.
        self.poison: PoisonContext | None = None
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
        """Close the run; returns its log plus measurements."""
        log, self.log = self.log, None
        if log is None:
            raise RuntimeError("end_run called with no open run")
        self.reducer = self._step = None
        recurring, self.recurring = self.recurring, False
        return RunExecution(
            log=log,
            map_costs=self._map_costs,
            reducer_costs=self._reducer_costs,
            recurring=recurring,
        )

    @contextmanager
    def reducer_scope(self, reducer: int):
        """Attribute the enclosed work (and logged nodes) to ``reducer``.

        The measured meter delta accumulates across scopes for the same
        reducer — a run opens one scope for the contraction pass and a
        second for the reduce pass — feeding the wave time model's
        per-reduce-task imbalance.
        """
        before = self.meter.total()
        previous, self.reducer = self.reducer, reducer
        try:
            yield
        finally:
            self.reducer = previous
            self._reducer_costs[reducer] = self._reducer_costs.get(
                reducer, 0.0
            ) + (self.meter.total() - before)

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
        consumed: tuple[int, ...] = (),
        produced: tuple[int, ...] = (),
        follows: bool = False,
    ) -> None:
        """Append one executed node to the open run's log (no-op outside
        a run): every record of a run goes through here.  ``label`` is a
        ``reduce`` node's key, formatted when the graph is built; a
        ``kind`` of ``None`` is :meth:`close_step`'s plan-only record."""
        log = self.log
        if log is not None:
            log.records.append((
                kind, phase, label, cost, data_size, memo_hit, self.reducer,
                split_uid, memo_uid, consumed, produced, follows, self._step,
            ))
            self._step = None

    def close_step(self) -> None:
        """Close the open step: one that executed no node — a ``reduce``
        step over an empty root — is logged as a plan-only record."""
        log = self.log
        if log is not None and self._step is not None:
            log.heads += 1
            self.log_node(None, None, "", 0.0, 0.0)

    # -- sub-computation execution ------------------------------------------

    def combine(
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
        meter = self.meter
        with meter.telemetry.span(node or "combine", SpanKind.TASK):
            if memo_uid is not None:
                cached = tree.memo.lookup(memo_uid)
                if cached is not None:
                    tree.stats.combiner_reuses += 1
                    if tree.memo_read_cost:
                        meter.charge(Phase.MEMO_READ, tree.memo_read_cost)
                    if recording:
                        self.log_node(
                            "memo_read", Phase.MEMO_READ,
                            node or f"memo:{memo_uid:#x}", tree.memo_read_cost,
                            float(len(cached)), True, memo_uid=memo_uid,
                            produced=(cached.uid,) if cached else (),
                        )
                    return cached
            tree.stats.combiner_invocations += 1
            non_empty = sum(1 for p in parts if p)
            if non_empty == 1:
                # A pass-through node (single live child): no merge runs, but
                # the child's data still moves through the tree position — on a
                # real cluster every tree node spills and copies its input, so
                # an overly tall tree is not free even where siblings are void.
                value = next(p for p in parts if p)
                charge = cost_scale * (
                    0.5 * tree.invocation_overhead
                    + tree.PASS_THROUGH_WEIGHT * value.record_weight(tree.combiner)
                )
                meter.charge(phase, charge)
                if recording:
                    self.log_node(
                        "pass_through", phase, node, charge, float(len(value)),
                        consumed=content_uids(parts), produced=(value.uid,),
                    )
                return value
            before = meter.by_phase.get(phase, 0.0) if recording else 0.0
            result = combine_partitions(
                parts,
                tree.combiner,
                meter=meter,
                phase=phase,
                cost_factor=tree.combine_cost_factor * cost_scale,
                invocation_overhead=tree.invocation_overhead * cost_scale,
                on_poison=(
                    self.poison.combine_handler(tree.combiner)
                    if self.poison is not None
                    else None
                ),
            )
            if recording:
                self.log_node(
                    "combine", phase, node,
                    meter.by_phase.get(phase, 0.0) - before, float(len(result)),
                    memo_uid=memo_uid, consumed=content_uids(parts),
                    produced=(result.uid,) if result else (),
                )
            if memo_uid is not None:
                tree.memo.store(memo_uid, result)
                if tree.memo_write_cost:
                    meter.charge(Phase.MEMO_WRITE, tree.memo_write_cost)
                    if recording:
                        self.log_node(
                            "memo_write", Phase.MEMO_WRITE,
                            f"memo-write:{memo_uid:#x}", tree.memo_write_cost,
                            float(len(result)), memo_uid=memo_uid, follows=True,
                        )
            return result

    def memo_visit(
        self, value: Partition, cost: float, node: str = ""
    ) -> None:
        """Plan and charge a memoized result moving through the tree —
        the strawman's per-node visit cost on positional reuse."""
        self.open_step("visit", node, Phase.MEMO_READ)
        with self.meter.telemetry.span(node or "memo-visit", SpanKind.TASK):
            self.meter.charge(Phase.MEMO_READ, cost)
            if self.log is not None:
                self.log_node(
                    "memo_read", Phase.MEMO_READ, node, cost,
                    float(len(value)), True,
                    produced=(value.uid,) if value else (),
                )
