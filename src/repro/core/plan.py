"""The per-run plan IR: what a window update *will* compute.

The contraction trees are *planners*: walking their level structure, they
open one step per sub-computation a window update needs — Map tasks,
combiner invocations at tree positions, strawman node visits, and
per-reducer Reduce passes.  The unified executor
(:mod:`repro.core.execute`) resolves each step as it is opened: a step
carrying a ``memo_uid`` is a **plan-level cache edge** — the plan says
"this position is memoizable under that id", and only execution decides
whether the edge is served from cache (a ``memo_read`` node in the
executed :class:`~repro.core.taskgraph.TaskGraph`) or recomputed
(``combine`` + ``memo_write`` nodes).

A step is not logged on its own: its atoms ride the first node it
executes, in the run's one :class:`~repro.core.taskgraph.RunLog`, and a
:class:`Plan` is the view of that log which makes a :class:`PlanStep` of
each record that opens a step.  The two views keep two artifacts apart:

* the **plan** (this module) is independent of memo-cache state — two
  runs over the same window movement open identical step sequences
  whether their caches are cold or warm (property-tested per variant);
* the **executed task graph** (:mod:`repro.core.taskgraph`) records what
  actually ran, with costs, and therefore *does* depend on cache state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from repro.core.taskgraph import REDUCER, STEP, RunLog
from repro.metrics import Phase

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
    step's reducer is its record's.  Like
    :class:`~repro.core.taskgraph.TaskGraph`, plans carry no generated
    equality; compare :meth:`signature`.
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
