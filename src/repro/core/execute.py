"""The unified plan executor: one substrate runs every sub-computation.

Trees *plan*; this module *executes*.  Each planner call (a tree's
``_combine``/``_memo_visit``, the engine's map and reduce passes) emits a
step into the run's :class:`~repro.core.plan.Plan` (one flat record) and
hands it straight to the :class:`PlanExecutor`, which resolves it in a
single pass — the only mode there is, in the engine and in a worker:

* consult the planner's memo table (plan-level cache edges become
  ``memo_read`` nodes on hit, ``combine`` + ``memo_write`` on miss);
* run the combiner over the live inputs (or forward a pass-through);
* charge the work meter, inside the step's telemetry task span;
* log the executed node as one record of the run's
  :class:`~repro.core.taskgraph.TaskGraph`.

Executing while planning (instead of batching the whole plan first) keeps
the semantics of the seed path bit-identical — planners may branch on the
*values* that flow through them (e.g. partition emptiness) — while the
plan artifact stays a pure description: step emission always precedes
resolution, so the plan never depends on what the cache held.

The executor also measures what the slider layer's time model consumes —
per-reducer work (via :meth:`PlanExecutor.reducer_scope`) — and closes
the per-run plan/graph pair (via :meth:`PlanExecutor.begin_run` /
:meth:`end_run`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.partition import Partition, combine_partitions
from repro.core.plan import Plan
from repro.core.poison import PoisonContext
from repro.core.taskgraph import GraphRecorder, TaskGraph
from repro.metrics import Phase, WorkMeter
from repro.telemetry import SpanKind

if TYPE_CHECKING:  # pragma: no cover - type-only, avoids a runtime cycle
    from repro.core.base import ContractionTree


@dataclass
class RunExecution:
    """Everything one executed run produced, for reports and the time model."""

    plan: Plan
    graph: TaskGraph | None
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
    """Runs plan steps: memo resolution, combining, charging, recording.

    One executor is shared by an engine and all of its per-reducer trees;
    a standalone tree builds a private one.  Between :meth:`begin_run` and
    :meth:`end_run` an open :class:`~repro.core.plan.Plan` collects the
    emitted steps and the :class:`~repro.core.taskgraph.GraphRecorder`
    transcribes the executed nodes; outside a run (e.g. background
    pre-processing between windows) steps execute without being planned
    or recorded, exactly as the seed path behaved.
    """

    def __init__(self, meter: WorkMeter | None = None) -> None:
        self.meter = meter if meter is not None else WorkMeter()
        self.recorder = GraphRecorder()
        self.plan: Plan | None = None
        #: When set (engine configured a poison policy), combiner failures
        #: are retried and then quarantined instead of aborting the run.
        self.poison: PoisonContext | None = None
        #: Test-only dynamic race probe (duck-typed so core never imports
        #: the analysis layer).  When set, every executed step fires
        #: ``probe.on_step(op, reducer=..., memo_uid=..., hit=..., label=...)``
        #: and run boundaries fire ``probe.on_begin_run(label)`` — the
        #: vector-clock cross-check in :mod:`repro.analysis.dynamic`
        #: validates the static race verdicts against what actually ran.
        self.probe: Any | None = None
        self._map_costs: dict[int, float] = {}
        self._reducer_costs: dict[int, float] = {}
        #: The open run's ``recurring`` verdict (False outside a run).
        self.recurring = False

    # -- run lifecycle -------------------------------------------------------

    @property
    def active(self) -> bool:
        return self.plan is not None

    def begin_run(self, label: str = "", recurring: bool = False) -> Plan:
        """Open a run: a fresh plan plus a fresh task graph.

        ``recurring`` is the caller's verdict that the engine has been in
        this run's structural state before.  The executor runs every run
        the same way and only carries the verdict: the execution backend
        reads it off the open run (its first dispatch rung) and
        :meth:`end_run` hands it back.
        """
        self.plan = Plan(label=label)
        self.recurring = recurring
        self.recorder.begin_run(label)
        if self.probe is not None:
            self.probe.on_begin_run(label)
        self._map_costs = {}
        self._reducer_costs = {}
        return self.plan

    def end_run(self) -> RunExecution:
        """Close the run; returns the plan/graph pair plus measurements."""
        plan, self.plan = self.plan, None
        if plan is None:
            raise RuntimeError("end_run called with no open run")
        recurring, self.recurring = self.recurring, False
        return RunExecution(
            plan=plan,
            graph=self.recorder.end_run(),
            map_costs=self._map_costs,
            reducer_costs=self._reducer_costs,
            recurring=recurring,
        )

    @contextmanager
    def reducer_scope(self, reducer: int):
        """Attribute the enclosed work (and recorded nodes) to ``reducer``.

        The measured meter delta accumulates across scopes for the same
        reducer — a run opens one scope for the contraction pass and a
        second for the reduce pass — feeding the wave time model's
        per-reduce-task imbalance.
        """
        before = self.meter.total()
        with self.recorder.reducer_context(reducer):
            try:
                yield
            finally:
                self._reducer_costs[reducer] = self._reducer_costs.get(
                    reducer, 0.0
                ) + (self.meter.total() - before)

    def record_map_cost(self, split_uid: int, cost: float) -> None:
        """Record the charged cost of one Map step's resolution."""
        self._map_costs[split_uid] = cost

    # -- planning-facing emission -------------------------------------------

    def plan_step(self, op: str, **kwargs) -> None:
        """Emit a step into the open plan (no-op outside a run)."""
        if self.plan is None:
            return
        self.plan.step(op, **kwargs)
        if self.probe is not None:
            self.probe.on_step(
                op,
                reducer=kwargs.get("reducer"),
                memo_uid=kwargs.get("memo_uid"),
                label=kwargs.get("label", ""),
            )

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
        if self.plan is not None:
            self.plan.step(
                "combine",
                node,
                phase,
                len(parts),
                memo_uid,
                self.recorder.reducer,
                cost_scale,
            )
        reuses_before = tree.stats.combiner_reuses
        with self.meter.telemetry.span(node or "combine", SpanKind.TASK):
            result = self._resolve_combine(
                tree, parts, phase, memo_uid, cost_scale, node
            )
        if self.probe is not None and self.active:
            self.probe.on_step(
                "combine",
                reducer=self.recorder.reducer,
                memo_uid=memo_uid,
                hit=tree.stats.combiner_reuses > reuses_before,
                label=node,
            )
        return result

    def _resolve_combine(  # analysis: charge-in-caller-span (combine's task span)
        self,
        tree: "ContractionTree",
        parts: Sequence[Partition],
        phase: Phase,
        memo_uid: int | None,
        cost_scale: float,
        node: str,
    ) -> Partition:
        recorder = self.recorder if self.recorder.active else None
        meter = self.meter
        if memo_uid is not None:
            cached = tree.memo.lookup(memo_uid)
            if cached is not None:
                tree.stats.combiner_reuses += 1
                if tree.memo_read_cost:
                    meter.charge(Phase.MEMO_READ, tree.memo_read_cost)
                if recorder is not None:
                    recorder.memo_read(
                        cached,
                        cost=tree.memo_read_cost,
                        label=node or f"memo:{memo_uid:#x}",
                        memo_uid=memo_uid,
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
            if recorder is not None:
                recorder.combine(
                    parts, value, phase, charge, label=node, pass_through=True
                )
            return value
        before = meter.by_phase.get(phase, 0.0) if recorder else 0.0
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
        if recorder is not None:
            recorder.combine(
                parts,
                result,
                phase,
                cost=meter.by_phase.get(phase, 0.0) - before,
                label=node,
                memo_uid=memo_uid,
            )
        if memo_uid is not None:
            tree.memo.store(memo_uid, result)
            if tree.memo_write_cost:
                meter.charge(Phase.MEMO_WRITE, tree.memo_write_cost)
                if recorder is not None:
                    recorder.memo_write(
                        result, cost=tree.memo_write_cost, memo_uid=memo_uid
                    )
        return result

    def memo_visit(
        self, value: Partition, cost: float, node: str = ""
    ) -> None:
        """Plan and charge a memoized result moving through the tree —
        the strawman's per-node visit cost on positional reuse."""
        if self.plan is not None:
            self.plan.step(
                "visit", node, Phase.MEMO_READ, 1, None, self.recorder.reducer
            )
        with self.meter.telemetry.span(node or "memo-visit", SpanKind.TASK):
            self.meter.charge(Phase.MEMO_READ, cost)
            if self.recorder.active:
                self.recorder.memo_read(value, cost=cost, label=node)
        if self.probe is not None and self.active:
            self.probe.on_step(
                "visit", reducer=self.recorder.reducer, label=node
            )
