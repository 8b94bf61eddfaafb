"""Unit tests for the per-run task-graph IR: what the executor logs, and
the graph view built from that log."""

import pytest

from repro.core.execute import PlanExecutor
from repro.core.partition import Partition
from repro.core.strawman import StrawmanTree
from repro.core.taskgraph import NODE_KINDS, TaskGraph
from repro.mapreduce.combiners import SumCombiner
from repro.metrics import Phase
from repro.slider.system import Slider, SliderConfig
from tests.oracle.fleet import count_job, split_of


def part(items):
    return Partition(dict(items))


def running(label=""):
    executor = PlanExecutor()
    executor.begin_run(label)
    return executor


def graph_of(executor):
    return TaskGraph(executor.end_run().log)


def made(executor, value, cost=0.0):
    """Log a map node that produced ``value``."""
    executor.log_node("map", Phase.MAP, "", cost, 1.0, produced=(value.uid,))


class TestTaskGraph:
    def test_add_assigns_sequential_uids(self):
        executor = running()
        value = part([("a", 1)])
        made(executor, value, cost=1.0)
        executor.log_node(
            "combine", Phase.CONTRACTION, "", 0.0, 1.0, consumed=(value.uid,)
        )
        graph = graph_of(executor)
        assert len(graph) == 2
        assert [node.uid for node in graph.nodes] == [0, 1]
        assert graph.nodes[1].deps == (0,)

    def test_unknown_kind_rejected(self):
        executor = running()
        executor.log_node("teleport", Phase.MAP, "", 0.0, 0.0)
        graph = graph_of(executor)
        assert len(graph) == 1  # len does not read the record
        with pytest.raises(ValueError, match="unknown node kind"):
            graph.nodes

    def test_deps_deduplicated_and_sorted(self):
        executor = running()
        values = [part([(key, 1)]) for key in "abc"]
        for value in values:
            made(executor, value)
        consumed = tuple(values[i].uid for i in (2, 0, 2, 1))
        executor.log_node(
            "combine", Phase.CONTRACTION, "", 0.0, 3.0, consumed=consumed
        )
        assert graph_of(executor).nodes[3].deps == (0, 1, 2)

    def test_producer_wiring(self):
        executor = running()
        value = part([("a", 1)])
        made(executor, value)
        graph = graph_of(executor)
        assert graph.producer_of(value) == 0
        assert graph.producer_of(part([("b", 2)])) is None

    def test_empty_partition_never_registered(self):
        executor = running()
        executor.log_node(
            "map", Phase.MAP, "", 0.0, 0.0, produced=(Partition.empty().uid,)
        )
        graph = graph_of(executor)
        assert graph.producer_of(Partition.empty()) is None

    def test_work_views(self):
        executor = running()
        executor.log_node("map", Phase.MAP, "", 2.0, 1.0)
        executor.log_node("map", Phase.MAP, "", 3.0, 1.0)
        executor.log_node("reduce", Phase.REDUCE, "k", 5.0, 1.0)
        graph = graph_of(executor)
        assert graph.work_by_phase() == {Phase.MAP: 5.0, Phase.REDUCE: 5.0}
        assert graph.total_work() == 10.0
        assert graph.counts_by_kind() == {"map": 2, "reduce": 1}

    def test_topological_order_is_construction_order(self):
        executor = running()
        value = part([("a", 1)])
        executor.log_node("map", Phase.MAP, "", 0.0, 1.0)
        executor.log_node(
            "shuffle", Phase.SHUFFLE, "", 0.0, 1.0, produced=(value.uid,),
            follows=True,
        )
        executor.log_node(
            "combine", Phase.CONTRACTION, "", 0.0, 1.0, consumed=(value.uid,)
        )
        graph = graph_of(executor)
        assert [node.uid for node in graph.nodes] == [0, 1, 2]
        assert all(dep < node.uid for node in graph.nodes for dep in node.deps)

    def test_critical_path_follows_heaviest_chain(self):
        # Diamond: a(1) -> {b(10), c(2)} -> d(3); every branch is work.
        executor = running()
        a, b, c = (part([(key, 1)]) for key in "abc")
        made(executor, a, cost=1.0)
        for value, cost in ((b, 10.0), (c, 2.0)):
            executor.log_node(
                "combine", Phase.CONTRACTION, "", cost, 1.0,
                consumed=(a.uid,), produced=(value.uid,),
            )
        executor.log_node(
            "reduce", Phase.REDUCE, "d", 3.0, 1.0, consumed=(c.uid, b.uid)
        )
        graph = graph_of(executor)
        assert graph.nodes[3].deps == (1, 2)
        assert graph.work_by_phase()[Phase.CONTRACTION] == 12.0
        assert graph.total_work() == 16.0

    def test_critical_path_of_empty_graph(self):
        graph = graph_of(running())
        assert len(graph) == 0 and graph.total_work() == 0.0
        assert graph.work_by_phase() == {} and graph.counts_by_kind() == {}


class TestGraphRecorder:
    """The executor's logging: what a run records, node by node."""

    def test_inactive_outside_run(self):
        executor = PlanExecutor()
        assert not executor.active
        # Opening, logging and closing a step are no-ops before begin_run,
        # and so is a combine's record.
        executor.open_step("map", "m", Phase.MAP)
        executor.log_node("map", Phase.MAP, "m", 1.0, 1.0)
        executor.close_step()
        tree = StrawmanTree(SumCombiner(), executor=executor)
        executor.combine(tree, [part([("a", 1)]), part([("b", 1)])])
        assert executor.log is None
        with pytest.raises(RuntimeError, match="no open run"):
            executor.end_run()

    def test_run_lifecycle(self):
        executor = PlanExecutor()
        log = executor.begin_run("r0")
        assert executor.active and log.label == "r0"
        executor.open_step("map", "map:0x7", Phase.MAP, memo_uid=7)
        executor.log_node("map", Phase.MAP, "map:0x7", 2.0, 1.0, split_uid=7)
        executor.log_node(
            "shuffle", Phase.SHUFFLE, "shuffle:0x7", 1.0, 1.0, split_uid=7,
            follows=True,
        )
        run = executor.end_run()
        assert run.log is log
        assert not executor.active
        assert TaskGraph(log).counts_by_kind() == {"map": 1, "shuffle": 1}
        assert (log.steps, log.heads, len(log.records)) == (1, 0, 2)

    def test_map_task_chains_shuffle_and_registers_outputs(self):
        slider = Slider(count_job(), config=SliderConfig())
        split = split_of(0)
        graph = slider.initial_run([split]).graph
        map_node, shuffle_node = graph.nodes[:2]
        assert map_node.kind == "map" and map_node.split_uid == split.uid
        assert shuffle_node.kind == "shuffle"
        assert shuffle_node.deps == (map_node.uid,)
        # Downstream consumers of the outputs depend on the chain's tail.
        for output in slider.map_memo[split.uid]:
            assert graph.producer_of(output) == shuffle_node.uid

    def test_combine_wires_deps_through_partitions(self):
        executor = running()
        tree = StrawmanTree(SumCombiner(), executor=executor)
        left, right = part([("a", 1)]), part([("b", 2)])
        made(executor, left)
        made(executor, right)
        result = executor.combine(tree, [left, right], node="n")
        graph = graph_of(executor)
        node = graph.nodes[2]
        assert node.kind == "combine" and node.label == "n"
        assert node.deps == (0, 1)
        assert graph.producer_of(result) == node.uid

    def test_combine_ignores_prior_run_inputs(self):
        """Values carried over from earlier runs are initial state."""
        executor = running()
        tree = StrawmanTree(SumCombiner(), executor=executor)
        stale = part([("old", 1)])  # never produced this run
        executor.combine(tree, [stale, part([("new", 1)])])
        node = graph_of(executor).nodes[0]
        assert node.deps == ()

    def test_reducer_context_tags_nodes(self):
        executor = running()
        with executor.reducer_scope(3):
            executor.log_node("combine", Phase.CONTRACTION, "", 1.0, 1.0)
        assert executor.reducer is None
        assert graph_of(executor).nodes[0].reducer == 3

    def test_memo_write_depends_on_its_combine(self):
        executor = running()
        tree = StrawmanTree(SumCombiner(), executor=executor)
        parts = [part([("a", 1)]), part([("b", 1)])]
        executor.combine(tree, parts, memo_uid=9)
        executor.combine(tree, parts, memo_uid=9)  # now a memo hit
        graph = graph_of(executor)
        node, write, hit = graph.nodes
        assert (node.kind, write.kind, hit.kind) == (
            "combine", "memo_write", "memo_read",
        )
        assert write.deps == (node.uid,)
        assert write.memo_uid == hit.memo_uid == 9 and hit.memo_hit

    def test_all_node_kinds_are_valid(self):
        executor = running()
        for kind in NODE_KINDS:
            executor.log_node(kind, Phase.MAP, "", 0.0, 0.0)
        graph = graph_of(executor)
        assert [node.kind for node in graph.nodes] == list(NODE_KINDS)
        assert len(graph) == len(NODE_KINDS)
