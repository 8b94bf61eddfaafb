"""Unit tests for the per-run task-graph IR."""

import pytest

from repro.core.partition import Partition
from repro.core.taskgraph import NODE_KINDS, GraphRecorder, TaskGraph
from repro.metrics import Phase


def part(items):
    return Partition(dict(items))


class TestTaskGraph:
    def test_add_assigns_sequential_uids(self):
        graph = TaskGraph()
        a = graph.add("map", Phase.MAP, cost=1.0)
        b = graph.add("combine", Phase.CONTRACTION, deps=(a.uid,))
        assert (a.uid, b.uid) == (0, 1)
        assert len(graph) == 2
        assert graph.node(1).deps == (0,)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown node kind"):
            TaskGraph().add("teleport", Phase.MAP)

    def test_forward_dependency_rejected(self):
        graph = TaskGraph()
        with pytest.raises(ValueError, match="does not exist"):
            graph.add("map", Phase.MAP, deps=(3,))

    def test_deps_deduplicated_and_sorted(self):
        graph = TaskGraph()
        for _ in range(3):
            graph.add("map", Phase.MAP)
        node = graph.add("combine", Phase.CONTRACTION, deps=(2, 0, 2, 1))
        assert node.deps == (0, 1, 2)

    def test_producer_wiring(self):
        graph = TaskGraph()
        value = part([("a", 1)])
        node = graph.add("map", Phase.MAP)
        graph.set_producer(value, node.uid)
        assert graph.producer_of(value) == node.uid
        assert graph.deps_of([value, part([("b", 2)])]) == (node.uid,)

    def test_empty_partition_never_registered(self):
        graph = TaskGraph()
        node = graph.add("map", Phase.MAP)
        graph.set_producer(Partition.empty(), node.uid)
        assert graph.producer_of(Partition.empty()) is None
        assert graph.deps_of([Partition.empty()]) == ()

    def test_work_views(self):
        graph = TaskGraph()
        graph.add("map", Phase.MAP, cost=2.0)
        graph.add("map", Phase.MAP, cost=3.0)
        graph.add("reduce", Phase.REDUCE, cost=5.0)
        assert graph.work_by_phase() == {Phase.MAP: 5.0, Phase.REDUCE: 5.0}
        assert graph.total_work() == 10.0
        assert graph.counts_by_kind() == {"map": 2, "reduce": 1}

    def test_topological_order_is_construction_order(self):
        graph = TaskGraph()
        a = graph.add("map", Phase.MAP)
        b = graph.add("shuffle", Phase.SHUFFLE, deps=(a.uid,))
        graph.add("combine", Phase.CONTRACTION, deps=(b.uid,))
        assert [node.uid for node in graph.nodes] == [0, 1, 2]
        assert all(dep < node.uid for node in graph.nodes for dep in node.deps)

    def test_critical_path_follows_heaviest_chain(self):
        # Diamond: a(1) -> {b(10), c(2)} -> d(3); every branch is work.
        graph = TaskGraph()
        a = graph.add("map", Phase.MAP, cost=1.0)
        b = graph.add("combine", Phase.CONTRACTION, cost=10.0, deps=(a.uid,))
        c = graph.add("combine", Phase.CONTRACTION, cost=2.0, deps=(a.uid,))
        d = graph.add(
            "reduce", Phase.REDUCE, cost=3.0, deps=(c.uid, b.uid)
        )
        assert d.deps == (b.uid, c.uid)
        assert graph.work_by_phase()[Phase.CONTRACTION] == 12.0
        assert graph.total_work() == 16.0

    def test_critical_path_of_empty_graph(self):
        graph = TaskGraph()
        assert len(graph) == 0 and graph.total_work() == 0.0
        assert graph.work_by_phase() == {} and graph.counts_by_kind() == {}


class TestGraphRecorder:
    def test_inactive_outside_run(self):
        recorder = GraphRecorder()
        assert not recorder.active
        # Every recording call is a no-op before begin_run.
        recorder.map_task(1, [part([("a", 1)])], map_cost=1.0, shuffle_cost=1.0)
        recorder.memo_read(part([("a", 1)]), cost=0.1)
        recorder.reduce_key(part([("a", 1)]), "a", cost=1.0)
        assert recorder.end_run() is None

    def test_run_lifecycle(self):
        recorder = GraphRecorder()
        graph = recorder.begin_run("r0")
        assert recorder.active
        recorder.map_task(7, [part([("a", 1)])], map_cost=2.0, shuffle_cost=1.0)
        closed = recorder.end_run()
        assert closed is graph
        assert not recorder.active
        assert graph.counts_by_kind() == {"map": 1, "shuffle": 1}

    def test_map_task_chains_shuffle_and_registers_outputs(self):
        recorder = GraphRecorder()
        recorder.begin_run()
        outputs = [part([("a", 1)]), part([("b", 2)])]
        recorder.map_task(7, outputs, map_cost=2.0, shuffle_cost=1.0)
        graph = recorder.end_run()
        map_node, shuffle_node = graph.nodes
        assert map_node.kind == "map" and map_node.split_uid == 7
        assert shuffle_node.deps == (map_node.uid,)
        # Downstream consumers of the outputs depend on the chain's tail.
        assert graph.producer_of(outputs[0]) == shuffle_node.uid
        assert graph.producer_of(outputs[1]) == shuffle_node.uid

    def test_combine_wires_deps_through_partitions(self):
        recorder = GraphRecorder()
        recorder.begin_run()
        left, right = part([("a", 1)]), part([("b", 2)])
        recorder.map_task(1, [left], map_cost=1.0, shuffle_cost=0.0)
        recorder.map_task(2, [right], map_cost=1.0, shuffle_cost=0.0)
        result = part([("a", 1), ("b", 2)])
        recorder.combine([left, right], result, Phase.CONTRACTION, cost=2.0)
        graph = recorder.end_run()
        node = graph.nodes[2]
        assert node.deps == (0, 1)
        assert graph.producer_of(result) == node.uid

    def test_combine_ignores_prior_run_inputs(self):
        """Values carried over from earlier runs are initial state."""
        recorder = GraphRecorder()
        recorder.begin_run()
        stale = part([("old", 1)])  # never produced this run
        recorder.combine(
            [stale], part([("old", 1)]), Phase.CONTRACTION, cost=1.0
        )
        node = recorder.end_run().nodes[0]
        assert node.deps == ()

    def test_reducer_context_tags_nodes(self):
        recorder = GraphRecorder()
        recorder.begin_run()
        with recorder.reducer_context(3):
            recorder.combine([], part([("a", 1)]), Phase.CONTRACTION, cost=1.0)
        node = recorder.graph.nodes[0]
        assert node.reducer == 3
        assert recorder.reducer is None

    def test_memo_write_depends_on_its_combine(self):
        recorder = GraphRecorder()
        recorder.begin_run()
        value = part([("a", 1)])
        recorder.combine([], value, Phase.CONTRACTION, cost=1.0)
        recorder.memo_write(value, cost=0.5, memo_uid=9)
        graph = recorder.end_run()
        node, write = graph.nodes
        assert write.kind == "memo_write"
        assert write.deps == (node.uid,)
        assert write.memo_uid == 9

    def test_all_node_kinds_are_valid(self):
        graph = TaskGraph()
        for kind in NODE_KINDS:
            graph.add(kind, Phase.MAP)
        assert len(graph) == len(NODE_KINDS)
