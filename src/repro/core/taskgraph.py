"""The per-run task-graph IR: every run reified as a DAG of sub-computations.

The paper's central object is the contraction tree as a *graph of
memoizable sub-computations* — its O(log n) update bound comes from the
depth of exactly that DAG.  This module records it explicitly: one
:class:`TaskNode` per Map task, combiner invocation, memo read/write, and
per-key Reduce, with dependency edges wired through the
:class:`~repro.core.partition.Partition` values that flow between them.

The :class:`GraphRecorder` is threaded by the Slider engine through
``_run_maps`` → tree ``advance`` → ``_reduce_all``; contraction trees feed
it from :meth:`~repro.core.base.ContractionTree._combine`, passing their
own level structure as node labels.  The graph is a pure *observation*: it
charges nothing to the :class:`~repro.metrics.WorkMeter`, and its per-phase
totals are asserted (in tests) to equal the legacy metering, making the
meter a derived view of the graph.  Observing is also all a run pays for:
the recorder appends one flat :data:`Record` a node to a log, and the
:class:`TaskGraph` builds its nodes, edges and producer table from the
log the first time somebody reads them.

Nothing under ``src/`` reads a graph: its readers are the equivalence
oracle (``tests/oracle``, node by node across engines), the seed golden
(``graph_nodes`` / ``graph_kinds``) and the tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

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
#: order with three differences: no uid (its position), the content ids
#: the node consumed and those it produced in place of ``deps``, and a
#: last flag for the two edges not wired through content — a ``shuffle``
#: follows its ``map``, a ``memo_write`` its ``combine``, each the record
#: directly before it.  Atoms and tuples of atoms only.
Record = tuple


@dataclass(frozen=True)
class TaskNode:
    """One sub-computation of a run.

    ``deps`` reference earlier nodes by uid (the graph is built append-only,
    so edges always point backwards and the graph is acyclic by
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
    """The dependency graph of one Slider run, built on first read.

    A run *appends* to ``records`` — one flat tuple a node, see
    :class:`GraphRecorder` — and the first read of ``nodes``, of a view
    over it or of the producer table turns what is pending into
    :class:`TaskNode` values through :meth:`add`; reading is O(nodes)
    once, a later read builds only what was recorded since, and a graph
    nobody reads never builds.  ``len`` does not build.  Graphs carry no
    generated equality: a built and an unbuilt graph of one run hold the
    same nodes in different fields.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        #: Recorded, not yet built (:data:`Record` tuples, in run order).
        self.records: list[Record] = []
        self._nodes: list[TaskNode] = []
        #: Partition content id -> uid of the node that produced it this run.
        self._producers: dict[int, int] = {}

    # -- construction --------------------------------------------------------

    @property
    def nodes(self) -> list[TaskNode]:
        self._build()
        return self._nodes

    def _build(self) -> None:
        """Turn the pending records into nodes, wiring edges by content."""
        if not self.records:
            return
        pending, self.records = self.records, []
        nodes, producers = self._nodes, self._producers
        for (
            kind, phase, label, cost, data_size, memo_hit, reducer,
            split_uid, memo_uid, consumed, produced, follows,
        ) in pending:
            deps = [producers[uid] for uid in consumed if uid in producers]
            if follows:
                deps.append(len(nodes) - 1)
            if kind == "reduce":  # recorded as the key; see reduce_key
                label = f"reduce:{reducer}:{label!r:.32}"
            node = self.add(
                kind, phase, label, cost, data_size, memo_hit, reducer,
                split_uid, memo_uid, tuple(deps),
            )
            for uid in produced:
                producers[uid] = node.uid

    def add(
        self,
        kind: str,
        phase: Phase,
        label: str = "",
        cost: float = 0.0,
        data_size: float = 0.0,
        memo_hit: bool = False,
        reducer: int | None = None,
        split_uid: int | None = None,
        memo_uid: int | None = None,
        deps: tuple[int, ...] = (),
    ) -> TaskNode:
        nodes = self.nodes
        if kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {kind!r}")
        for dep in deps:
            if not 0 <= dep < len(nodes):
                raise ValueError(f"dependency {dep} does not exist yet")
        node = TaskNode(
            uid=len(nodes),
            kind=kind,
            phase=phase,
            label=label,
            cost=cost,
            data_size=data_size,
            memo_hit=memo_hit,
            reducer=reducer,
            split_uid=split_uid,
            memo_uid=memo_uid,
            deps=tuple(sorted(set(deps))),
        )
        nodes.append(node)
        return node

    def set_producer(self, partition: Partition, node_uid: int) -> None:
        """Record that ``partition``'s content is produced by ``node_uid``.

        Empty partitions are never registered: the shared empty-partition
        content id would wire bogus edges between unrelated subtrees.
        """
        if partition:
            self._build()  # what is pending registers first
            self._producers[partition.uid] = node_uid

    def producer_of(self, partition: Partition) -> int | None:
        """The node that produced ``partition`` this run, if any.

        ``None`` means the value is *initial state* for this run (carried
        over from a previous run's memoization), so no edge is needed.
        """
        if not partition:
            return None
        self._build()
        return self._producers.get(partition.uid)

    def deps_of(self, parts) -> tuple[int, ...]:
        """Producer uids for every partition in ``parts`` known to this run."""
        found = []
        for part in parts:
            uid = self.producer_of(part)
            if uid is not None:
                found.append(uid)
        return tuple(found)

    # -- derived views -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes) + len(self.records)

    def node(self, uid: int) -> TaskNode:
        return self.nodes[uid]

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


class GraphRecorder:
    """Logs one TaskGraph per Slider run.

    Lifecycle: ``begin_run`` opens a fresh graph, the engine and trees
    feed it while the run executes, ``end_run`` closes it and hands it
    over.  Outside a run every recording call is a no-op, so background
    pre-processing (which runs between windows) never pollutes a run's
    graph.

    Recording builds nothing: each call appends one :data:`Record` to the
    open graph's ``records`` and :class:`TaskGraph` makes the nodes when
    somebody reads them.  A record holds only what was true when the step
    executed — sizes, costs and content uids, never a partition — so a
    graph read long after its run is the graph of that run, and a kept
    result pins none of the window's state.
    """

    def __init__(self) -> None:
        self.graph: TaskGraph | None = None
        #: Reducer context set by the engine around per-tree work.
        self.reducer: int | None = None

    @property
    def active(self) -> bool:
        return self.graph is not None

    # -- lifecycle ---------------------------------------------------------

    def begin_run(self, label: str = "") -> TaskGraph:
        self.graph = TaskGraph(label=label)
        self.reducer = None
        return self.graph

    def end_run(self) -> TaskGraph | None:
        graph, self.graph = self.graph, None
        self.reducer = None
        return graph

    @contextmanager
    def reducer_context(self, reducer: int):
        previous, self.reducer = self.reducer, reducer
        try:
            yield
        finally:
            self.reducer = previous

    # -- recording ---------------------------------------------------------
    # A record, in order: kind, phase, label, cost, data_size, memo_hit,
    # reducer, split_uid, memo_uid, consumed, produced, follows.

    def extend(self, records: list[Record]) -> None:
        """Records another process made of its share of this run, which
        take their place here: edges resolve by content in the one log."""
        if self.graph is not None:
            self.graph.records.extend(records)

    def map_task(
        self,
        split_uid: int,
        outputs: list[Partition],
        map_cost: float,
        shuffle_cost: float,
    ) -> None:
        """A fresh Map task: a map node plus a dependent shuffle node; the
        per-reducer output partitions are produced by the chain's tail."""
        if self.graph is None:
            return
        size = float(sum(len(p) for p in outputs))
        produced = _content_uids(outputs)
        chained = shuffle_cost > 0
        self.graph.records.append((
            "map", Phase.MAP, f"map:{split_uid:#x}", map_cost, size, False,
            None, split_uid, None, (), () if chained else produced, False,
        ))
        if chained:
            self.graph.records.append((
                "shuffle", Phase.SHUFFLE, f"shuffle:{split_uid:#x}",
                shuffle_cost, size, False, None, split_uid, None, (),
                produced, True,
            ))

    def map_reuse(
        self, split_uid: int, outputs: list[Partition], cost: float
    ) -> None:
        """A memoized Map task: its outputs are served by a memo read."""
        if self.graph is None:
            return
        self.graph.records.append((
            "memo_read", Phase.MEMO_READ, f"map-memo:{split_uid:#x}", cost,
            float(sum(len(p) for p in outputs)), True, None, split_uid,
            None, (), _content_uids(outputs), False,
        ))

    def memo_read(
        self,
        value: Partition,
        cost: float,
        label: str = "",
        memo_uid: int | None = None,
    ) -> None:
        """A memo hit inside a tree: the cached value enters the run here."""
        if self.graph is None:
            return
        self.graph.records.append((
            "memo_read", Phase.MEMO_READ, label, cost, float(len(value)),
            True, self.reducer, None, memo_uid, (),
            (value.uid,) if value else (), False,
        ))

    def combine(
        self,
        parts,
        result: Partition,
        phase: Phase,
        cost: float,
        label: str = "",
        pass_through: bool = False,
        memo_uid: int | None = None,
    ) -> None:
        """One combiner invocation (or pass-through) at a tree position."""
        if self.graph is None:
            return
        self.graph.records.append((
            "pass_through" if pass_through else "combine", phase, label,
            cost, float(len(result)), False, self.reducer, None, memo_uid,
            _content_uids(parts), (result.uid,) if result else (), False,
        ))

    def memo_write(
        self, value: Partition, cost: float, memo_uid: int | None = None
    ) -> None:
        """Persisting the result of the combine recorded just before."""
        if self.graph is None:
            return
        self.graph.records.append((
            "memo_write", Phase.MEMO_WRITE,
            f"memo-write:{(memo_uid or 0):#x}", cost, float(len(value)),
            False, self.reducer, None, memo_uid, (), (), True,
        ))

    def reduce_key(self, root: Partition, key, cost: float) -> None:
        """The Reduce function applied to one changed key of a root.

        One a changed key, so the hottest record: the label slot holds
        the key itself and the build formats it.
        """
        if self.graph is None:
            return
        self.graph.records.append((
            "reduce", Phase.REDUCE, key, cost, 1.0, False, self.reducer,
            None, None, (root.uid,) if root else (), (), False,
        ))

    def reduce_reuse(self, root: Partition, keys: int, cost: float) -> None:
        """Memoized Reduce outputs for ``keys`` unchanged keys of a root."""
        if self.graph is None:
            return
        self.graph.records.append((
            "memo_read", Phase.MEMO_READ,
            f"reduce-memo:{self.reducer}:{keys}keys", cost, float(keys),
            True, self.reducer, None, None, (root.uid,) if root else (), (),
            False,
        ))


def _content_uids(parts) -> tuple[int, ...]:
    """Content ids of the non-empty partitions in ``parts`` — the shared
    empty content id would wire bogus edges between unrelated subtrees."""
    return tuple([part.uid for part in parts if part])
