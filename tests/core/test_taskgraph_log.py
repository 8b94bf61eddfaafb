"""The built graph is the graph.

A run appends one flat record a node and ``TaskGraph`` makes the nodes
when somebody reads them; a plan is a log of the same shape.  That a
graph or plan read late is the one read at once is an invariant of every
walk of the oracle (``tests/oracle``): the reference's are read only
when the walk is over (``Fleet.read_late``), every other arm's as its run
finishes, under generated motion, collections, corruption runs and
dispatch.  Here: the walks this suite has always named, and the unit
cases of the log itself, whose twin recorder builds after *every*
record — which is what recording did before it became a log, since both
go through ``TaskGraph.add``.
"""

from __future__ import annotations

import pytest

from repro.core.partition import Partition
from repro.core.taskgraph import GraphRecorder
from repro.metrics import Phase
from tests.oracle.fleet import ALL, CASES, Fleet, case_of, count
from tests.oracle.fleet import graph_fields as fields
from tests.oracle.test_walk import walk

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


def test_a_graph_read_late_is_the_graph_built_eagerly():
    """Collected partitions and flipped ones: a record is taken when its
    step executes, so neither can reach a graph read afterwards."""
    for case in CASES:
        with Fleet(case, arms=("reference", "kept"), auto_gc=False) as fleet:
            fleet.advance(3, ALL, repeat=True)
            fleet.corrupt(seed=2, victims=2)
            fleet.background()
            fleet.advance(2, 1)
            fleet.collect()
            fleet.corrupt(seed=4, victims=2)
            assert len(fleet.late) == 5
            fleet.read_late()
            assert fleet.late == []


@pytest.mark.parametrize("case", CASES, ids=lambda case: f"{case[0]}-{case[2]}")
def test_every_kind_of_node_is_compared(case):
    """Memo hits and writes (the randomized tree's ``memo_uid``
    combines), memo visits (the strawman's) and pass-throughs all occur
    in the oracle's long walk, so the comparison is not vacuous."""
    expected = {"map", "shuffle", "combine", "reduce", "memo_read"}
    if case[0] == "randomized":
        expected |= {"memo_write"}
    if case[0] in ("folding", "rotating", "coalescing"):
        expected |= {"pass_through"}
    assert expected <= walk(case).kinds


@pytest.mark.parametrize(
    "case",
    [case_of(variant) for variant in ("folding", "rotating", "coalescing")],
    ids=lambda case: case[0],
)
def test_records_cross_the_process_seam_in_reducer_order(case):
    """Workers return records and the parent takes them into its own log
    where it merges their spans: dispatched runs, an in-process interlude
    and a run in which reducer 0 falls back in-process after a worker
    error while reducer 1's records come from its worker.  The reference
    stays in process and differs only in the last bits of a combine's
    cost (a meter delta, which a worker takes from a meter that starts at
    zero); its plans, which hold no cost, are equal exactly.
    """
    with Fleet(case, arms=("reference", "process")) as fleet:
        engine = fleet.engines["process"]
        fleet.steady(5)
        fleet.interlude()
        local = count(engine, "backend.inprocess_runs")
        fleet.advance()
        assert count(engine, "backend.inprocess_runs") == local + 1
        fleet.steady(3)
        assert count(engine, "backend.worker_fallbacks") == 0
        assert fleet.kill_worker(hard=False)
        assert count(engine, "backend.worker_fallbacks") == 1
        # The failed run still merged reducer 1 from its worker.
        assert count(engine, "backend.dispatched_reducers") % 2 == 0
        fleet.advance()


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
        assert node.uid == 2 and [n.uid for n in graph.nodes] == [0, 1, 2]

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
