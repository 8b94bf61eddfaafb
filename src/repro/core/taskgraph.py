"""The per-run log, and the task-graph IR read from it.

The paper's central object is the contraction tree as a *graph of
memoizable sub-computations* — its O(log n) update bound comes from the
depth of exactly that DAG.  A run records it as it executes: the
:class:`~repro.core.execute.PlanExecutor` appends one flat :data:`Record`
a node — Map task, combiner invocation, memo read/write, per-key Reduce —
to the run's :class:`RunLog`, and a record that opens a plan step also
carries that step's plan atoms.  The log is the run's only recording;
the :class:`TaskGraph` (here) and the :class:`~repro.core.plan.Plan` are
two read-only views of it, each built the first time somebody reads it.

The graph is a pure *observation*: it charges nothing to the
:class:`~repro.metrics.WorkMeter`, and its per-phase totals are asserted
(in tests) to equal the metering.  Its edges are wired through the
content ids of the :class:`~repro.core.partition.Partition` values that
flow between nodes.  Nothing under ``src/`` reads a graph: its readers
are the equivalence oracle (``tests/oracle``, node by node across
engines), the seed golden (``graph_nodes`` / ``graph_kinds``) and the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.partition import Partition
from repro.metrics import Phase

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

#: One executed node as a run logs it, the :class:`TaskNode` fields in
#: order with four differences: no uid (its position); the content ids
#: the node consumed and those it produced in place of ``deps``; a flag
#: for the two edges not wired through content — a ``shuffle`` follows
#: its ``map``, a ``memo_write`` its ``combine``, each the node directly
#: before it; and last the *step* slot, the plan atoms a node cannot
#: spell — ``(op, label, phase, n_inputs, memo_uid, cost_scale)`` — on
#: the node that opens a plan step and ``None`` on one that continues
#: it.  A ``reduce`` step over an empty root executes no node, so its
#: atoms ride a *plan-only* record whose kind is ``None``: the one record
#: that is not a node.  Atoms and tuples of atoms only.
Record = tuple
#: Where a record keeps its reducer and its step atoms.
REDUCER, STEP = 6, 12


def content_uids(parts: Iterable[Partition]) -> tuple[int, ...]:
    """Content ids of the non-empty partitions in ``parts`` — the shared
    empty content id would wire bogus edges between unrelated subtrees."""
    return tuple([part.uid for part in parts if part])


class RunLog:
    """One run's records, in execution order.

    ``steps`` counts the records that open a plan step and ``heads`` the
    plan-only ones, so that neither view has to build to know its length.
    A record holds only what was true when its node executed — sizes,
    costs and content uids, never a partition — so a log read long after
    its run is that run's, and a kept result pins none of the window's
    state.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.records: list[Record] = []
        self.steps = 0
        self.heads = 0

    def extend(self, records: list[Record]) -> None:
        """Records another process logged of its share of this run, which
        take their place here: edges resolve by content in the one log."""
        self.records.extend(records)
        for record in records:
            if record[STEP] is not None:
                self.steps += 1
                self.heads += record[0] is None


@dataclass(frozen=True)
class TaskNode:
    """One sub-computation of a run.

    ``deps`` reference earlier nodes by uid (the log is append-only, so
    edges always point backwards and the graph is acyclic by
    construction).  ``data_size`` is the abstract size of the node's output
    (keys produced).
    """

    uid: int
    kind: str
    phase: Phase
    label: str = ""
    cost: float = 0.0
    data_size: float = 0.0
    memo_hit: bool = False
    reducer: int | None = None
    split_uid: int | None = None
    memo_uid: int | None = None
    deps: tuple[int, ...] = ()


class TaskGraph:
    """The dependency graph of one Slider run: a view of its log.

    The first read of ``nodes``, of a view over it or of the producer
    table turns the records logged since the last read into
    :class:`TaskNode` values; reading is O(nodes) once, and a graph nobody
    reads never builds.  ``len`` does not build.  Graphs carry no
    generated equality: compare their nodes.
    """

    def __init__(self, log: RunLog) -> None:
        self.log = log
        self._nodes: list[TaskNode] = []
        #: Partition content id -> uid of the node that produced it this run.
        self._producers: dict[int, int] = {}
        #: How many of the log's records have been read.
        self._read = 0

    @property
    def nodes(self) -> list[TaskNode]:
        self._build()
        return self._nodes

    def _build(self) -> None:
        """Turn the unread records into nodes, wiring edges by content."""
        records = self.log.records
        nodes, producers = self._nodes, self._producers
        for index in range(self._read, len(records)):
            (
                kind, phase, label, cost, data_size, memo_hit, reducer,
                split_uid, memo_uid, consumed, produced, follows, _,
            ) = records[index]
            if kind is None:  # a plan-only record
                continue
            if kind not in NODE_KINDS:
                raise ValueError(f"unknown node kind {kind!r}")
            deps = {producers[uid] for uid in consumed if uid in producers}
            if follows:
                deps.add(len(nodes) - 1)
            if kind == "reduce":  # logged as the key; the build formats it
                label = f"reduce:{reducer}:{label!r:.32}"
            uid = len(nodes)
            nodes.append(TaskNode(
                uid, kind, phase, label, cost, data_size, memo_hit, reducer,
                split_uid, memo_uid, tuple(sorted(deps)),
            ))
            for content in produced:
                producers[content] = uid
        self._read = len(records)

    def producer_of(self, partition: Partition) -> int | None:
        """The node that produced ``partition`` this run, if any.

        ``None`` means the value is *initial state* for this run (carried
        over from a previous run's memoization), so no edge is needed.
        Empty partitions are never registered: the shared empty content
        id would wire bogus edges between unrelated subtrees.
        """
        if not partition:
            return None
        self._build()
        return self._producers.get(partition.uid)

    # -- derived views -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.log.records) - self.log.heads

    def work_by_phase(self) -> dict[Phase, float]:
        """Per-phase work totals derived from the graph (the WorkMeter view)."""
        totals: dict[Phase, float] = {}
        for node in self.nodes:
            totals[node.phase] = totals.get(node.phase, 0.0) + node.cost
        return totals

    def total_work(self) -> float:
        return sum(node.cost for node in self.nodes)

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.nodes:
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts
