"""The built graph is the graph.

A run appends one flat record a node and ``TaskGraph`` makes the nodes
when somebody reads them.  Over generated schedules, every run of an
engine whose graphs are read only when the schedule is over equals, node
for node and field for field, the run of a twin whose recorder builds
after *every* record — which is what recording did before it became a
log, since both go through ``TaskGraph.add``.

The plan is a log of the same shape, and the same harness holds it to
the same bar: the late engine's plans are read only when the schedule is
over, the twin's after every step.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.chaos import ChaosPlan, ChaosSchedule, CorruptionEvent
from repro.core.partition import Partition
from repro.core.plan import Plan
from repro.core.taskgraph import GraphRecorder, TaskGraph
from repro.mapreduce.types import Split
from repro.metrics import Phase
from repro.slider.equivalence import _scenario_job as _job
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.conftest import graph_fields as fields

#: (variant, its window mode, split_mode)
CASES = (
    ("folding", WindowMode.VARIABLE, False),
    ("randomized", WindowMode.VARIABLE, False),
    ("strawman", WindowMode.VARIABLE, False),
    ("rotating", WindowMode.FIXED, False),
    ("rotating", WindowMode.FIXED, True),
    ("coalescing", WindowMode.APPEND, False),
    ("coalescing", WindowMode.APPEND, True),
)
#: The variants whose plans are cacheable, so that they dispatch.
DISPATCHING = (CASES[0], CASES[3], CASES[5])
ALL = -1  # "remove every split": the window-emptying eviction

_RECORDING = (
    "map_task", "map_reuse", "memo_read", "combine", "memo_write",
    "reduce_key", "reduce_reuse", "extend",
)


class EagerRecorder(GraphRecorder):
    """Builds the open graph after every record."""


def _then_build(name):
    record = getattr(GraphRecorder, name)

    def method(self, *args, **kwargs):
        record(self, *args, **kwargs)
        if self.graph is not None:
            len(self.graph.nodes)
            assert not self.graph.records

    return method


for _name in _RECORDING:
    setattr(EagerRecorder, _name, _then_build(_name))


class EagerPlan(Plan):
    """Builds its steps after every record."""

    def step(self, *args, **kwargs):
        super().step(*args, **kwargs)
        assert len(self.steps) == len(self.records)


def _read_plans_after_every_step(executor) -> None:
    begin = executor.begin_run

    def begin_run(label="", recurring=False):
        begin(label, recurring)
        executor.plan = EagerPlan(label)
        return executor.plan

    executor.begin_run = begin_run


def plan_fields(plan: Plan) -> list[tuple]:
    """The label, then every field of every step.  Reading builds."""
    return [plan.label] + [dataclasses.astuple(step) for step in plan.steps]


def _split(i: int) -> Split:
    return Split.from_records(
        [f"k{(i * 5 + j) % 17}" for j in range(3 + i % 7)], label=f"s{i}"
    )


class _Pair:
    """An engine whose graphs and plans nobody reads yet, and its eager
    twin."""

    def __init__(self, case, chaos=None, witness=None, **config) -> None:
        variant, self.mode, split_mode = case
        config = SliderConfig(
            mode=self.mode, tree=variant, split_mode=split_mode, **config
        )
        self.late, self.eager = self.engines = [
            Slider(_job(), self.mode, config, chaos=chaos) for _ in range(2)
        ]
        self.eager.executor.recorder = EagerRecorder()
        _read_plans_after_every_step(self.eager.executor)
        if witness is not None:  # a third engine, configured otherwise
            self.engines.append(
                Slider(_job(), self.mode, dataclasses.replace(config, **witness))
            )
        #: (the late engine's graph, the twin's as its run finished)
        self.kept: list[tuple[TaskGraph, list[tuple]]] = []
        #: The witness's graphs, likewise.
        self.witnessed: list[list[list[tuple]]] = []
        #: (the late engine's plan, the twin's as its run finished, the
        #: witness's if there is one)
        self.plans: list[tuple[Plan, list[tuple], list[list[tuple]]]] = []
        self.next_split = 5
        self.run(lambda e: e.initial_run([_split(i) for i in range(5)]))

    def run(self, operation) -> None:
        late, eager, *others = results = [operation(e) for e in self.engines]
        assert all(result.outputs == late.outputs for result in results)
        self.kept.append((late.graph, fields(eager.graph)))
        self.witnessed.append([fields(other.graph) for other in others])
        self.plans.append((
            late.plan,
            plan_fields(eager.plan),
            [plan_fields(other.plan) for other in others],
        ))

    def advance(self, add: int = 1, remove: int = 1, repeat: bool = False) -> None:
        window = self.late.window
        if self.mode is WindowMode.APPEND:
            remove = 0
        elif self.mode is WindowMode.FIXED:
            add = remove = min(add, len(window))
        else:
            remove = len(window) if remove == ALL else min(remove, len(window))
        added = [_split(self.next_split + i) for i in range(add)]
        self.next_split += add
        if repeat and added and len(window) > remove:
            added[0] = window.splits[-1]  # the same split appended twice
        self.run(lambda e: e.advance(list(added), remove))

    def each(self, operation) -> None:
        for engine in self.engines:
            operation(engine)

    def read_everything(self) -> set[str]:
        """Only now is any graph or plan of the late engine read; returns
        the node kinds seen."""
        kinds: set[str] = set()
        for plan, expected, _ in self.plans:
            assert plan._steps == [] and len(plan) == len(expected) - 1
            assert plan_fields(plan) == expected
        for graph, expected in self.kept:
            assert len(graph.records) == len(graph) == len(expected)
            assert fields(graph) == expected
            assert not graph.records and len(graph) == len(expected)
            kinds.update(node.kind for node in graph.nodes)
        return kinds

    def close(self) -> None:
        self.each(lambda e: e.close())


_ADVANCE = st.tuples(
    st.just("advance"),
    st.integers(0, 3),  # splits added: zero-add, or a k-split bulk move
    st.sampled_from([0, 0, 1, 1, 2, 3, ALL]),  # splits removed
    st.booleans(),  # first added split repeats the window's newest
)
_STEPS = st.lists(
    st.one_of(_ADVANCE, _ADVANCE, _ADVANCE, st.just(("background",))),
    min_size=1,
    max_size=10,
)


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(CASES),
    auto_gc=st.booleans(),
    corrupt_runs=st.sets(st.integers(1, 6), max_size=2),
    steps=_STEPS,
)
def test_a_graph_read_late_is_the_graph_built_eagerly(
    case, auto_gc, corrupt_runs, steps
):
    # Collected partitions and flipped ones (a record is taken when its
    # step executes, so neither can reach a graph read afterwards).
    chaos = ChaosPlan(
        schedules={
            run: ChaosSchedule(corruptions=[CorruptionEvent(count=2)], seed=run)
            for run in corrupt_runs
        }
    )
    pair = _Pair(case, chaos=chaos if corrupt_runs else None, auto_gc=auto_gc)
    try:
        for step in steps:
            if step[0] == "advance":
                pair.advance(*step[1:])
            else:
                pair.each(lambda e: e.background_preprocess())
        pair.read_everything()
    finally:
        pair.close()


@pytest.mark.parametrize("case", CASES, ids=lambda case: f"{case[0]}-{case[2]}")
def test_every_kind_of_node_is_compared(case):
    """Memo hits and writes (the randomized tree's ``memo_uid``
    combines), memo visits (the strawman's) and pass-throughs all occur
    in the schedules above, so the comparison is not vacuous."""
    pair = _Pair(case)
    try:
        for _ in range(6):
            pair.advance()
        pair.advance(add=0, remove=0)
        pair.each(lambda e: e.background_preprocess())
        pair.advance(add=2, remove=2)
        kinds = pair.read_everything()
    finally:
        pair.close()
    expected = {"map", "shuffle", "combine", "reduce", "memo_read"}
    if case[0] == "randomized":
        expected |= {"memo_write"}
    if case[0] in ("folding", "rotating", "coalescing"):
        expected |= {"pass_through"}
    assert expected <= kinds
    if case[0] in ("randomized", "strawman"):
        tree_hits = [
            node
            for graph, _ in pair.kept
            for node in graph.nodes
            if node.kind == "memo_read" and node.label.startswith(("rft:", "straw:"))
        ]
        assert tree_hits


def _count(engine, name):
    return engine.telemetry.counters.get(name, 0)


@pytest.mark.parametrize("case", DISPATCHING, ids=lambda case: case[0])
def test_records_cross_the_process_seam_in_reducer_order(case):
    """Workers return records and the parent takes them into its own log
    where it merges their spans: dispatched runs, an in-process interlude
    and a run in which reducer 0 falls back in-process after a worker
    error while reducer 1's records come from its worker.  The twin
    dispatches too and builds at every merge; a third engine stays in
    process and differs only in the last bits of a combine's cost (a
    meter delta, which a worker takes from a meter that starts at zero);
    its plans, which hold no cost, are equal exactly.
    """
    pair = _Pair(
        case,
        witness={"execution_backend": "inprocess"},
        execution_backend="process",
        workers=2,
    )
    engine = pair.late
    try:
        def advance_until_dispatched(runs, before_each=lambda: None):
            target = _count(engine, "backend.dispatch_runs") + runs
            for _ in range(40 * runs + 40):
                if _count(engine, "backend.dispatch_runs") >= target:
                    return
                before_each()
                pair.advance()
            raise AssertionError("the process engine stopped dispatching")

        advance_until_dispatched(5)
        pair.each(lambda e: e.plan_cache.clear())  # the interlude
        local = _count(engine, "backend.inprocess_runs")
        pair.advance()
        assert _count(engine, "backend.inprocess_runs") == local + 1
        advance_until_dispatched(3)
        assert _count(engine, "backend.worker_fallbacks") == 0

        def lie():
            # Believe worker 0 holds leaves that in-process runs made.
            for e in (pair.late, pair.eager):
                e.backend._held[0] = {
                    p.uid: p for p in e.trees[0].window_leaves()
                }

        pair.each(lambda e: e.plan_cache.clear())
        advance_until_dispatched(1, before_each=lie)
        for e in (pair.late, pair.eager):
            assert _count(e, "backend.worker_fallbacks") == 1
            # The failed run still merged reducer 1 from its worker.
            assert _count(e, "backend.dispatched_reducers") % 2 == 0
        pair.advance()
        pair.read_everything()
        for (graph, _), (inprocess,) in zip(pair.kept, pair.witnessed):
            for node, other in zip(fields(graph), inprocess, strict=True):
                assert node[:4] + node[5:] == other[:4] + other[5:]
                assert node[4] == pytest.approx(other[4], rel=1e-9)
        for plan, _, (inprocess,) in pair.plans:
            assert plan_fields(plan) == inprocess
    finally:
        pair.close()


# -- unit cases ---------------------------------------------------------------


def part(items):
    return Partition(dict(items))


def _recorders():
    late, eager = GraphRecorder(), EagerRecorder()
    late.begin_run("unit")
    eager.begin_run("unit")
    return late, eager


def _to_both(recorders, name, *args, **kwargs):
    for recorder in recorders:
        getattr(recorder, name)(*args, **kwargs)


class TestLog:
    def test_a_read_in_mid_run_then_more_records(self):
        recorders = late, eager = _recorders()
        left, right = part([("a", 1)]), part([("b", 2)])
        merged = part([("a", 1), ("b", 2)])
        _to_both(recorders, "map_task", 1, [left], map_cost=1.0, shuffle_cost=0.5)
        _to_both(recorders, "map_reuse", 2, [right], cost=0.1)
        assert [node.kind for node in late.graph.nodes] == [
            "map", "shuffle", "memo_read",
        ]
        assert late.graph.producer_of(left) == 1
        with late.reducer_context(1), eager.reducer_context(1):
            _to_both(
                recorders, "combine", [left, right], merged,
                Phase.CONTRACTION, cost=2.0, label="n", memo_uid=9,
            )
            _to_both(recorders, "memo_write", merged, cost=0.5, memo_uid=9)
            assert len(late.graph.records) == 2  # the later read goes on
            _to_both(recorders, "reduce_key", merged, ("a", 0), cost=1.0)
        graph = late.end_run()
        assert fields(graph) == fields(eager.end_run())
        combine, write, reduce = graph.nodes[3:]
        assert combine.deps == (1, 2)
        assert write.deps == (combine.uid,)
        assert reduce.deps == (combine.uid,)
        assert reduce.label == "reduce:1:('a', 0)"

    def test_len_and_end_run_do_not_build(self):
        recorder = GraphRecorder()
        graph = recorder.begin_run()
        recorder.map_task(7, [part([("a", 1)])], map_cost=2.0, shuffle_cost=1.0)
        recorder.reduce_reuse(part([("a", 1)]), 3, cost=0.3)
        assert len(graph) == 3
        assert recorder.end_run() is graph
        assert len(graph) == len(graph.records) == 3
        assert graph.counts_by_kind() == {"map": 1, "shuffle": 1, "memo_read": 1}
        assert len(graph) == 3 and not graph.records

    def test_add_by_hand_comes_after_what_is_pending(self):
        recorder = GraphRecorder()
        graph = recorder.begin_run()
        recorder.map_task(7, [part([("a", 1)])], map_cost=2.0, shuffle_cost=1.0)
        node = graph.add("reduce", Phase.REDUCE, deps=(1,))
        assert node.uid == 2 and graph.topological_order() == [0, 1, 2]

    def test_pass_through_whose_result_is_its_input(self):
        recorders = late, eager = _recorders()
        value = part([("a", 1)])
        _to_both(recorders, "map_task", 1, [value], map_cost=1.0, shuffle_cost=0.0)
        _to_both(
            recorders, "combine", [value, Partition.empty()], value,
            Phase.CONTRACTION, cost=0.5, pass_through=True,
        )
        _to_both(recorders, "reduce_key", value, "a", cost=1.0)
        graph = late.end_run()
        assert fields(graph) == fields(eager.end_run())
        source, forward, reduce = graph.nodes
        assert forward.kind == "pass_through" and forward.deps == (source.uid,)
        assert reduce.deps == (forward.uid,)
        assert graph.producer_of(value) == forward.uid

    def test_an_empty_partition_is_never_registered(self):
        recorder = GraphRecorder()
        recorder.begin_run()
        unshared = Partition({})  # empty, without the shared empty's uid
        # A Map task that emitted nothing for either of its reducers.
        recorder.map_task(
            1, [Partition.empty(), unshared], map_cost=1.0, shuffle_cost=1.0
        )
        recorder.map_reuse(2, [Partition.empty(), unshared], cost=0.1)
        for empty in (Partition.empty(), unshared):
            recorder.combine([], empty, Phase.CONTRACTION, cost=1.0)
            recorder.memo_read(empty, cost=0.1)
            recorder.combine([empty], part([("a", 1)]), Phase.CONTRACTION, cost=1.0)
            recorder.reduce_key(empty, "a", cost=1.0)
        graph = recorder.end_run()
        assert all(node.deps == () for node in graph.nodes[2:])
        assert graph.producer_of(Partition.empty()) is None
        assert graph.producer_of(unshared) is None

    def test_a_record_holds_no_partition(self):
        recorder = GraphRecorder()
        graph = recorder.begin_run()
        value = part([("a", 1)])
        recorder.map_task(1, [value], map_cost=1.0, shuffle_cost=1.0)
        recorder.map_reuse(2, [value], cost=0.1)
        recorder.memo_read(value, cost=0.1, label="m", memo_uid=3)
        recorder.combine([value, value], value, Phase.CONTRACTION, cost=1.0)
        recorder.memo_write(value, cost=0.1, memo_uid=3)
        recorder.reduce_key(value, ("a", 1), cost=1.0)
        recorder.reduce_reuse(value, 2, cost=0.2)
        atoms = (int, float, str, bool, type(None), Phase)

        def flat(item):
            if type(item) is tuple:
                return all(flat(inner) for inner in item)
            return isinstance(item, atoms)

        assert len(graph.records) == 8
        assert all(flat(record) for record in graph.records)
