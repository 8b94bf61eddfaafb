"""Unit tests for what the executor logs: one record a node executed."""

import pytest

from repro.core.execute import PlanExecutor
from repro.core.partition import Partition
from repro.core.plan import LIVE, NODE_KINDS, REDUCER
from repro.core.strawman import StrawmanTree
from repro.mapreduce.combiners import SumCombiner
from repro.metrics import Phase
from repro.slider.system import Slider, SliderConfig
from tests.oracle.fleet import (
    MEMO_HIT, MEMO_UID, SPLIT_UID, count_job, split_of,
)


def part(items):
    return Partition(dict(items))


def running(label=""):
    executor = PlanExecutor()
    executor.begin_run(label)
    return executor


def records_of(executor):
    return executor.end_run().log.records


def made(executor, value, cost=0.0):
    """Log a map node that built ``value``."""
    executor.log_node("map", Phase.MAP, "", cost, float(len(value)))


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
            "shuffle", Phase.SHUFFLE, "shuffle:0x7", 1.0, 1.0, split_uid=7
        )
        run = executor.end_run()
        assert run.log is log
        assert not executor.active
        assert [record[0] for record in log.records] == ["map", "shuffle"]
        assert (log.steps, len(log.records)) == (1, 2)

    def test_map_task_chains_shuffle_and_registers_outputs(self):
        slider = Slider(count_job(), config=SliderConfig())
        split = split_of(0)
        records = slider.initial_run([split]).plan.log.records
        map_node, shuffle_node = records[:2]
        assert map_node[0] == "map" and map_node[SPLIT_UID] == split.uid
        assert shuffle_node[0] == "shuffle"
        assert shuffle_node[SPLIT_UID] == split.uid
        # Both name the split by its place: its uid, in the label too.
        assert shuffle_node[2] == f"shuffle:{split.uid:#x}"
        assert map_node[2] == f"map:{split.uid:#x}"
        assert map_node[LIVE] == shuffle_node[LIVE] == 0

    def test_combine_wires_deps_through_partitions(self):
        executor = running()
        tree = StrawmanTree(SumCombiner(), executor=executor)
        left, right = part([("a", 1)]), part([("b", 2)])
        made(executor, left)
        made(executor, right)
        result = executor.combine(tree, [left, right], node="n")
        node = records_of(executor)[2]
        assert node[0] == "combine" and node[2] == "n" and node[LIVE] == 2
        assert node[4] == float(len(result)) == 2.0
        # A record names its node by place: no uid was made to log it.
        assert left._uid is right._uid is result._uid is None

    def test_combine_ignores_prior_run_inputs(self):
        """Values carried over from earlier runs are initial state: the
        combine counts them live, and no record of the run made them."""
        executor = running()
        tree = StrawmanTree(SumCombiner(), executor=executor)
        stale, fresh = part([("old", 1)]), part([("new", 1)])  # never made
        executor.combine(tree, [stale, fresh])
        (node,) = records_of(executor)
        assert node[0] == "combine" and node[LIVE] == 2

    def test_reducer_context_tags_nodes(self):
        executor = running()
        with executor.reducer_scope(3):
            executor.log_node("combine", Phase.CONTRACTION, "", 1.0, 1.0)
        assert executor.reducer is None
        assert records_of(executor)[0][REDUCER] == 3

    def test_memo_write_depends_on_its_combine(self):
        """A ``memo_write`` is logged directly after the ``combine`` whose
        result it persists, under the same memo uid."""
        executor = running()
        tree = StrawmanTree(SumCombiner(), executor=executor)
        parts = [part([("a", 1)]), part([("b", 1)])]
        executor.combine(tree, parts, memo_uid=9)
        executor.combine(tree, parts, memo_uid=9)  # now a memo hit
        node, write, hit = records_of(executor)
        assert (node[0], write[0], hit[0]) == ("combine", "memo_write", "memo_read")
        assert node[MEMO_UID] == write[MEMO_UID] == hit[MEMO_UID] == 9
        assert hit[MEMO_HIT] and hit[2] == "memo:0x9" and hit[4] == node[4]
        assert (node[LIVE], write[LIVE], hit[LIVE]) == (2, 0, 0)

    def test_all_node_kinds_are_valid(self):
        executor = running()
        for kind in NODE_KINDS:
            executor.log_node(kind, Phase.MAP, "", 0.0, 0.0)
        records = records_of(executor)
        assert [record[0] for record in records] == list(NODE_KINDS)
