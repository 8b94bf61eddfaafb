"""The built graph is the graph.

A run appends one flat record a node to its one log, and ``TaskGraph``
and ``Plan`` make their nodes and steps when somebody reads them.  That a
graph or plan read late is the one read at once is an invariant of every
walk of the oracle (``tests/oracle``): the reference's are read only
when the walk is over (``Fleet.read_late``), every other arm's as its run
finishes, under generated motion, collections, corruption runs and
dispatch.  Here: the walks this suite has always named, that a run
appends exactly once a node, and the unit cases of the log itself,
whose twin executor builds both views after *every* record.
"""

from __future__ import annotations

import pytest

from repro.core.execute import PlanExecutor
from repro.core.partition import Partition
from repro.core.plan import Plan
from repro.core.strawman import StrawmanTree
from repro.core.taskgraph import TaskGraph, content_uids
from repro.mapreduce.combiners import SumCombiner
from repro.metrics import Phase
from repro.slider.system import Slider, SliderConfig
from tests.oracle.fleet import ALL, CASES, Fleet, case_of, count, count_job
from tests.oracle.fleet import graph_fields as fields
from tests.oracle.fleet import plan_fields, split_of
from tests.oracle.test_walk import walk


class EagerExecutor(PlanExecutor):
    """Builds the open run's graph and plan after every record."""

    def begin_run(self, label="", recurring=False):
        log = super().begin_run(label, recurring)
        self.graph, self.plan = TaskGraph(log), Plan(log)
        return log

    def log_node(self, *args, **kwargs):
        super().log_node(*args, **kwargs)
        if self.log is not None:
            assert len(self.graph.nodes) == len(self.graph)
            assert len(self.plan.steps) == len(self.plan)


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


def _idle_reduces(result) -> int:
    """Reduce steps that executed no node, read off the graph: a reducer
    whose pass left neither a ``reduce`` node nor a reduce-memo read."""
    reducing = {
        node.reducer
        for node in result.graph.nodes
        if node.kind == "reduce" or node.label.startswith("reduce-memo")
    }
    return sum(
        step.op == "reduce" and step.reducer not in reducing
        for step in result.plan.steps
    )


def test_a_run_appends_once_a_node(monkeypatch):
    """Every record goes through ``PlanExecutor.log_node``: a run's
    appends are its executed nodes plus its reduce steps that executed
    none, the window-emptying eviction among them."""
    appends: list = []
    log_node = PlanExecutor.log_node

    def counting(self, *args, **kwargs):
        if self.log is not None:
            appends.append(args[0])
        log_node(self, *args, **kwargs)

    monkeypatch.setattr(PlanExecutor, "log_node", counting)
    idle = 0
    for case in CASES:
        with Fleet(case, arms=("reference",)) as fleet:
            for motion in ((1, 1), (2, 0), (0, ALL), (2, 1)):
                appends.clear()
                result = fleet.advance(*motion)["reference"]
                empty = _idle_reduces(result)
                assert len(appends) == len(result.graph.nodes) + empty
                assert appends.count(None) == empty
                idle += empty
    assert idle > 0


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


def _executors():
    late, eager = PlanExecutor(), EagerExecutor()
    late.begin_run("unit")
    eager.begin_run("unit")
    return late, eager


def _to_both(executors, name, *args, **kwargs):
    for executor in executors:
        getattr(executor, name)(*args, **kwargs)


def _same_as_eager(late, eager):
    """``late``'s views, read once, are ``eager``'s, read a record at a
    time."""
    log = late.end_run().log
    eager.end_run()
    graph = TaskGraph(log)
    assert fields(graph) == fields(eager.graph)
    assert plan_fields(Plan(log)) == plan_fields(eager.plan)
    return graph


class TestLog:
    def test_a_read_in_mid_run_then_more_records(self):
        executors = late, eager = _executors()
        graph = TaskGraph(late.log)
        left, right = part([("a", 1)]), part([("b", 2)])
        merged = part([("a", 1), ("b", 2)])
        _to_both(executors, "open_step", "map", "map:0x1", Phase.MAP, memo_uid=1)
        _to_both(executors, "log_node", "map", Phase.MAP, "map:0x1", 1.0, 1.0)
        _to_both(
            executors, "log_node", "shuffle", Phase.SHUFFLE, "shuffle:0x1",
            0.5, 1.0, produced=(left.uid,), follows=True,
        )
        _to_both(executors, "open_step", "map", "map:0x2", Phase.MAP, memo_uid=2)
        _to_both(
            executors, "log_node", "memo_read", Phase.MEMO_READ, "map-memo:0x2",
            0.1, 1.0, True, produced=(right.uid,),
        )
        assert [node.kind for node in graph.nodes] == [
            "map", "shuffle", "memo_read",
        ]
        assert graph.producer_of(left) == 1
        with late.reducer_scope(1), eager.reducer_scope(1):
            _to_both(
                executors, "open_step", "combine", "n", Phase.CONTRACTION, 2, 9
            )
            _to_both(
                executors, "log_node", "combine", Phase.CONTRACTION, "n", 2.0,
                2.0, memo_uid=9, consumed=(left.uid, right.uid),
                produced=(merged.uid,),
            )
            _to_both(
                executors, "log_node", "memo_write", Phase.MEMO_WRITE,
                "memo-write:0x9", 0.5, 2.0, memo_uid=9, follows=True,
            )
            assert len(late.log.records) == len(graph._nodes) + 2  # goes on
            _to_both(executors, "open_step", "reduce", "reduce:1", Phase.REDUCE)
            _to_both(
                executors, "log_node", "reduce", Phase.REDUCE, ("a", 0), 1.0,
                1.0, consumed=(merged.uid,),
            )
        assert fields(graph) == fields(_same_as_eager(late, eager))
        combine, write, reduce = graph.nodes[3:]
        assert combine.deps == (1, 2)
        assert write.deps == (combine.uid,)
        assert reduce.deps == (combine.uid,)
        assert reduce.label == "reduce:1:('a', 0)"

    def test_len_and_end_run_do_not_build(self):
        executor = PlanExecutor()
        log = executor.begin_run()
        graph, plan = TaskGraph(log), Plan(log)
        executor.open_step("map", "map:0x7", Phase.MAP, memo_uid=7)
        executor.log_node("map", Phase.MAP, "map:0x7", 2.0, 1.0)
        executor.log_node(
            "shuffle", Phase.SHUFFLE, "shuffle:0x7", 1.0, 1.0, follows=True
        )
        with executor.reducer_scope(0):
            executor.open_step("reduce", "reduce:0", Phase.REDUCE)
            executor.log_node(
                "memo_read", Phase.MEMO_READ, "reduce-memo:0:3keys", 0.3, 3.0, True
            )
            executor.close_step()  # the step executed a node: nothing to log
        with executor.reducer_scope(1):
            executor.open_step("reduce", "reduce:1", Phase.REDUCE)
            executor.close_step()  # an empty root: a plan-only record
        assert (len(graph), len(plan), len(log.records)) == (3, 3, 4)
        assert executor.end_run().log is log
        assert graph._nodes == [] and plan._steps == []
        assert graph.counts_by_kind() == {"map": 1, "shuffle": 1, "memo_read": 1}
        assert [(step.op, step.reducer) for step in plan.steps] == [
            ("map", None), ("reduce", 0), ("reduce", 1),
        ]
        assert len(graph) == len(graph.nodes) == 3

    def test_pass_through_whose_result_is_its_input(self):
        executors = late, eager = _executors()
        value = part([("a", 1)])
        _to_both(executors, "log_node", "map", Phase.MAP, "", 1.0, 1.0,
                 produced=(value.uid,))
        for executor in executors:
            tree = StrawmanTree(SumCombiner(), executor=executor)
            assert executor.combine(tree, [value, Partition.empty()]) is value
        _to_both(executors, "log_node", "reduce", Phase.REDUCE, "a", 1.0, 1.0,
                 consumed=(value.uid,))
        graph = _same_as_eager(late, eager)
        source, forward, reduce = graph.nodes
        assert forward.kind == "pass_through" and forward.deps == (source.uid,)
        assert reduce.deps == (forward.uid,)
        assert graph.producer_of(value) == forward.uid

    def test_an_empty_partition_is_never_registered(self):
        executor = PlanExecutor()
        log = executor.begin_run()
        tree = StrawmanTree(SumCombiner(), executor=executor)
        unshared = Partition({})  # empty, without the shared empty's uid
        # A Map task that emitted nothing for either of its reducers.
        executor.log_node(
            "map", Phase.MAP, "", 1.0, 0.0,
            produced=content_uids([Partition.empty(), unshared]),
        )
        for index, empty in enumerate((Partition.empty(), unshared)):
            executor.combine(tree, [empty, empty])
            executor.memo_visit(empty, 0.1)
            executor.combine(tree, [empty, part([(f"a{index}", 1)])])
        executor.end_run()
        graph = TaskGraph(log)
        assert all(node.deps == () for node in graph.nodes)
        assert graph.producer_of(Partition.empty()) is None
        assert graph.producer_of(unshared) is None

    def test_a_record_holds_no_partition(self):
        atoms = (int, float, str, bool, type(None), Phase)

        def flat(item):
            if type(item) is tuple:
                return all(flat(inner) for inner in item)
            return isinstance(item, atoms)

        kinds = set()
        for variant in ("randomized", "strawman", "folding"):
            slider = Slider(count_job(), config=SliderConfig(tree=variant))
            results = [slider.initial_run([split_of(i) for i in range(4)])]
            results.append(slider.advance([split_of(4), split_of(0)], 1))
            for result in results:
                records = result.plan.log.records
                assert all(type(record) is tuple for record in records)
                assert all(flat(record) for record in records)
                kinds.update(record[0] for record in records)
        assert kinds == {
            "map", "shuffle", "combine", "pass_through", "memo_read",
            "memo_write", "reduce",
        }
