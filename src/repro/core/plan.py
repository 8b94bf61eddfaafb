"""The per-run log, and the plan IR read from it.

The paper's central object is the contraction tree as a *graph of
memoizable sub-computations* — its O(log n) update bound comes from the
depth of exactly that DAG.  A run records it as it executes: the
:class:`~repro.core.execute.PlanExecutor` appends one flat :data:`Record`
a node — Map task, combiner invocation, memo read/write, per-key Reduce —
to the run's :class:`RunLog`, and a record that opens a plan step also
carries that step's plan atoms.  The log is the run's only recording: it
holds what actually ran, with costs, and therefore *does* depend on
memo-cache state.  A record names its node by its place -- its reducer
and its label (tree tag, level, index) -- never by the content of the
partitions it read or made, so no node has to make a content id to be
logged.

The contraction trees are *planners*: walking their level structure, they
open one step per sub-computation a window update needs — Map tasks,
combiner invocations at tree positions, strawman node visits, and
per-reducer Reduce passes.  The unified executor
(:mod:`repro.core.execute`) resolves each step as it is opened: a step
carrying a ``memo_uid`` is a **plan-level cache edge** — the plan says
"this position is memoizable under that id", and only execution decides
whether the edge is served from cache (a ``memo_read`` record) or
recomputed (``combine`` + ``memo_write`` records).  A :class:`Plan` is
the view of the log which makes a :class:`PlanStep` of each record that
opens a step, and it is independent of memo-cache state: two runs over
the same window movement open identical step sequences whether their
caches are cold or warm (property-tested per variant).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from repro.metrics import Phase
from repro.telemetry import LevelMark

#: Node kinds, the taxonomy of sub-computations a run is made of.
NODE_KINDS = (
    "map",          # one Map task over a new split
    "shuffle",      # routing one Map task's emissions to reducers
    "combine",      # one real combiner invocation (>= 2 live inputs)
    "pass_through", # a tree position forwarding its single live child
    "memo_read",    # a memoized result served instead of recomputation
    "memo_write",   # persisting a fresh combiner result
    "reduce",       # the Reduce function on one changed key
)

#: One executed node as a run logs it: ``(kind, phase, label, cost,
#: data_size, memo_hit, reducer, split_uid, memo_uid, live, step)``.
#: ``data_size`` is the abstract size of the node's output (keys
#: produced); ``label`` is a string, or a ``reduce`` node's key; ``live``
#: counts the non-empty partitions the node read: a combine's inputs, a
#: pass-through's one, a Reduce pass's root, and none for a ``map``,
#: ``shuffle`` or memo hit.  A ``shuffle`` always directly follows its
#: ``map``, a ``memo_write`` its ``combine``.  Last is the *step* slot,
#: the plan atoms a node cannot spell — ``(op, label, phase, n_inputs,
#: memo_uid, cost_scale)`` — on the node that opens a plan step and
#: ``None`` on one that continues it.  A ``reduce`` step over an empty
#: root executes no node, so its atoms ride a *plan-only* record whose
#: kind is ``None``: the one record that is not a node.  Atoms and tuples
#: of atoms only.
Record = tuple
#: Where a record keeps its reducer, live-input count and step atoms.
REDUCER, LIVE, STEP = 6, 9, 10


class RunLog:
    """One run's records, in execution order.

    ``steps`` counts the records that open a plan step, so that nobody
    has to read the records to know how many steps a run has.  A record
    holds only what was true when its node executed — sizes, costs and
    places, never a partition — so a log read long after its run is
    that run's, and a kept result pins none of the window's state.

    ``marks`` holds one :class:`~repro.telemetry.LevelMark` a tree level
    swept, in sweep order: the range of records the sweep appended,
    which the per-level table and the Chrome trace read as the level's
    tasks and its work.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.records: list[Record] = []
        self.steps = 0
        self.marks: list[LevelMark] = []

    def extend(self, records: list[Record]) -> None:
        """Records another process logged of its share of this run, which
        take their place here: a record names its node by its reducer and
        label, which mean the same in the one log."""
        self.records.extend(records)
        for record in records:
            if record[STEP] is not None:
                self.steps += 1

    def tasks(self, first: int, last: int) -> list[tuple[str, dict[Phase, float]]]:
        """The tasks of ``records[first:last]`` — a tree level's nodes —
        as the per-level table and the trace show them: a name, and the
        work charged by phase in charge order.  A ``memo_write`` folds
        into the ``combine`` it follows.  A combine whose inputs were all
        empty (no live input) logs 0.0 having charged nothing."""
        tasks: list[tuple[str, dict[Phase, float]]] = []
        for record in self.records[first:last]:
            kind, phase, label, cost = record[:4]
            if kind == "memo_write":
                tasks[-1][1][phase] = cost
            elif kind == "memo_read":
                tasks.append((label or "memo-visit", {phase: cost}))
            elif kind is not None:
                idle = not record[LIVE] and not cost
                tasks.append((label or "combine", {} if idle else {phase: cost}))
        return tasks


#: Step kinds a plan is assembled from.
PLAN_OPS = (
    "map",      # one Map task over a split (cache edge: the split uid)
    "combine",  # a combiner invocation at a tree position
    "visit",    # a positional node visit (the strawman's reuse walk)
    "reduce",   # the per-key Reduce pass over one reducer's root
)

_LEVEL_RE = re.compile(r":L(\d+)\.")
_HEX_ID_RE = re.compile(r"0x[0-9a-f]+")


@dataclass(frozen=True)
class PlanStep:
    """One planned sub-computation.

    ``memo_uid`` (when set) is the plan-level cache edge: the stable
    content id this step's result is memoizable under.  ``n_inputs``
    counts the partitions feeding the step; whether any are live (and
    hence whether a combine degenerates to a pass-through) is an
    execution-time property, not a plan property.
    """

    uid: int
    op: str
    label: str = ""
    phase: Phase | None = None
    n_inputs: int = 0
    memo_uid: int | None = None
    reducer: int | None = None
    cost_scale: float = 1.0

    @property
    def cache_edge(self) -> bool:
        """True when this step may be served by the memo cache."""
        return self.memo_uid is not None

    @property
    def level(self) -> int | None:
        """The tree level encoded in the step label (``...:L<n>....``)."""
        match = _LEVEL_RE.search(self.label)
        return int(match.group(1)) if match else None

    def signature(self) -> tuple:
        """The step's identity for plan-equality checks.

        Excludes nothing: every field of a step is a pure function of the
        planner's structural state and the window movement, never of the
        memo cache.
        """
        return (
            self.uid,
            self.op,
            self.label,
            self.phase.value if self.phase is not None else None,
            self.n_inputs,
            self.memo_uid,
            self.reducer,
            self.cost_scale,
        )

    def structural_signature(self) -> tuple:
        """The step's identity with content ids masked out.

        Map steps embed split content ids in their labels and memo uids, so
        two structurally identical runs over different data differ in
        :meth:`signature` but agree here: hex ids collapse to ``0x*`` and a
        cache edge reduces to its presence.  Two advances from one
        structural state (``plan_structure_key`` plus motion) agree here.
        """
        return (
            self.uid,
            self.op,
            _HEX_ID_RE.sub("0x*", self.label),
            self.phase.value if self.phase is not None else None,
            self.n_inputs,
            self.memo_uid is not None,
            self.reducer,
            self.cost_scale,
        )


class Plan:
    """The ordered step sequence of one Slider run: a view of its log.

    A read of ``steps`` (or of a view over it) makes the
    :class:`PlanStep` values for the steps logged since the last read; a
    plan nobody reads never builds one, and ``len`` does not build.  A
    step's reducer is its record's.  Plans carry no generated equality;
    compare :meth:`signature`.
    """

    def __init__(self, log: RunLog) -> None:
        self.log = log
        self._steps: list[PlanStep] = []
        #: How many of the log's records have been read.
        self._read = 0

    @property
    def label(self) -> str:
        return self.log.label

    @property
    def steps(self) -> list[PlanStep]:
        records, built = self.log.records, self._steps
        for index in range(self._read, len(records)):
            record = records[index]
            step = record[STEP]
            if step is not None:
                op, label, phase, n_inputs, memo_uid, cost_scale = step
                if op not in PLAN_OPS:
                    raise ValueError(f"unknown plan op {op!r}")
                built.append(PlanStep(
                    len(built), op, label, phase, n_inputs, memo_uid,
                    record[REDUCER], cost_scale,
                ))
        self._read = len(records)
        return built

    # -- derived views -------------------------------------------------------

    def __len__(self) -> int:
        return self.log.steps

    def __iter__(self) -> Iterator[PlanStep]:
        return iter(self.steps)

    def counts_by_op(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for planned in self.steps:
            counts[planned.op] = counts.get(planned.op, 0) + 1
        return counts

    def cache_edge_count(self) -> int:
        """How many steps carry a plan-level cache edge."""
        return sum(1 for planned in self.steps if planned.cache_edge)

    def level_structure(self) -> dict[int, int]:
        """Steps per tree level (steps without a level label are omitted)."""
        levels: dict[int, int] = {}
        for planned in self.steps:
            level = planned.level
            if level is not None:
                levels[level] = levels.get(level, 0) + 1
        return dict(sorted(levels.items()))

    def signature(self) -> tuple:
        """Order-sensitive identity of the whole plan."""
        return tuple(planned.signature() for planned in self.steps)

    def structural_signature(self) -> tuple:
        """Order-sensitive identity with content ids masked out.

        Two runs over different window contents but the same structural
        state and motion agree here; see
        :meth:`PlanStep.structural_signature`.
        """
        return tuple(planned.structural_signature() for planned in self.steps)

    def shape(self) -> dict:
        """The golden-test view: counts, cache edges, level structure."""
        return {
            "steps": len(self),
            "ops": self.counts_by_op(),
            "cache_edges": self.cache_edge_count(),
            "levels": self.level_structure(),
        }
