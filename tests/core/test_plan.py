"""The plan is a view of the run's log: a step's atoms ride the record of
the first node it executes, a ``PlanStep`` is made when somebody reads
it, and every view reads the steps."""

import pytest

from repro.core.execute import PlanExecutor
from repro.core.plan import Plan, PlanStep
from repro.core.taskgraph import REDUCER, STEP
from repro.metrics import Phase


def executed(executor, *step, reducer=None, **kwargs):
    """Open a step and log the one node it executes."""
    previous, executor.reducer = executor.reducer, reducer
    executor.open_step(*step, **kwargs)
    executor.log_node("memo_read", Phase.MEMO_READ, "", 0.0, 0.0)
    executor.reducer = previous


def plan_of(*steps):
    executor = PlanExecutor()
    log = executor.begin_run()
    for step in steps:
        executed(executor, *step)
    executor.end_run()
    return Plan(log)


class TestPlanSignatures:
    def test_structural_signature_masks_content_ids(self):
        a = plan_of(("map", "map:s@0xdeadbeef", Phase.MAP, 1, 101))
        b = plan_of(("map", "map:s@0xcafebabe", Phase.MAP, 1, 202))
        assert a.signature() != b.signature()
        assert a.structural_signature() == b.structural_signature()

    def test_structural_signature_sees_real_differences(self):
        a = plan_of(("map", "map:s@0xdeadbeef", Phase.MAP, 1))
        b = plan_of(("map", "map:s@0xdeadbeef", Phase.MAP, 2))
        assert a.structural_signature() != b.structural_signature()

    def test_step_signature_shapes(self):
        step = PlanStep(
            uid=0, op="combine", label="fold:L2.1@0xabc123", n_inputs=2
        )
        assert step.level == 2
        structural = step.structural_signature()
        assert "0x*" in structural[2]
        assert structural[5] is False  # memo presence, not the uid


class TestLog:
    def test_a_step_is_one_record_of_atoms(self):
        executor = PlanExecutor()
        log = executor.begin_run("t")
        assert executor.open_step("map", "map:0x1", Phase.MAP, 1, 0x1) is None
        executor.log_node("map", Phase.MAP, "map:0x1", 1.0, 1.0)
        executor.log_node("shuffle", Phase.SHUFFLE, "s", 1.0, 1.0, follows=True)
        executed(
            executor, "combine", "fold:L1.0", Phase.CONTRACTION, 2,
            reducer=1, cost_scale=0.5,
        )
        assert [record[STEP] for record in log.records] == [
            ("map", "map:0x1", Phase.MAP, 1, 0x1, 1.0),
            None,  # the shuffle continues the map step
            ("combine", "fold:L1.0", Phase.CONTRACTION, 2, None, 0.5),
        ]
        assert log.records[2][REDUCER] == 1
        assert [step.reducer for step in Plan(log).steps] == [None, 1]

    def test_len_does_not_build(self):
        plan = plan_of(
            ("map", "m", Phase.MAP), ("reduce", "reduce:0", Phase.REDUCE)
        )
        assert len(plan) == 2 and plan._steps == []
        assert [step.uid for step in plan.steps] == [0, 1]
        assert len(plan) == 2 == len(plan.log.records)

    def test_a_read_in_mid_run_then_more_steps(self):
        executor = PlanExecutor()
        plan = Plan(executor.begin_run())
        executed(executor, "map", "m", Phase.MAP, 0, 7)
        first = plan.steps[0]
        assert first == PlanStep(0, "map", "m", Phase.MAP, 0, 7, None, 1.0)
        executed(executor, "visit", "straw:L0.0", Phase.MEMO_READ, reducer=1)
        assert plan.steps[0] is first  # built once
        assert plan.steps[1].uid == 1 and plan.steps[1].reducer == 1
        assert plan.counts_by_op() == {"map": 1, "visit": 1}
        assert plan.signature() == tuple(s.signature() for s in plan.steps)
        assert list(plan) == plan.steps

    def test_records_another_process_logged_take_their_place(self):
        worker, parent = PlanExecutor(), PlanExecutor()
        worker.begin_run()
        plan = Plan(parent.begin_run())
        executed(parent, "map", "m", Phase.MAP)
        executed(worker, "combine", "c", Phase.CONTRACTION, reducer=0)
        parent.log.extend(worker.end_run().log.records)
        executed(parent, "reduce", "reduce:0", Phase.REDUCE, reducer=0)
        assert len(plan) == 3
        assert [(s.uid, s.op, s.reducer) for s in plan.steps] == [
            (0, "map", None), (1, "combine", 0), (2, "reduce", 0),
        ]

    def test_unknown_op_is_refused(self):
        plan = plan_of(("fuse", "", Phase.CONTRACTION))
        assert len(plan) == 1  # len does not read the record
        with pytest.raises(ValueError, match="unknown plan op"):
            plan.steps
