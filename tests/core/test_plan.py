"""The plan is a log: a step is one flat record, a ``PlanStep`` is made
when somebody reads it, and every view reads the steps."""

import pytest

from repro.core.plan import Plan, PlanStep
from repro.metrics import Phase


class TestPlanSignatures:
    def test_structural_signature_masks_content_ids(self):
        a, b = Plan(), Plan()
        a.step("map", label="map:s@0xdeadbeef", memo_uid=101, n_inputs=1)
        b.step("map", label="map:s@0xcafebabe", memo_uid=202, n_inputs=1)
        assert a.signature() != b.signature()
        assert a.structural_signature() == b.structural_signature()

    def test_structural_signature_sees_real_differences(self):
        a, b = Plan(), Plan()
        a.step("map", label="map:s@0xdeadbeef", n_inputs=1)
        b.step("map", label="map:s@0xdeadbeef", n_inputs=2)
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
        plan = Plan(label="t")
        assert plan.step("map", "map:0x1", Phase.MAP, 1, 0x1) is None
        plan.step("combine", label="fold:L1.0", phase=Phase.CONTRACTION,
                  n_inputs=2, reducer=1, cost_scale=0.5)
        assert plan.records == [
            ("map", "map:0x1", Phase.MAP, 1, 0x1, None, 1.0),
            ("combine", "fold:L1.0", Phase.CONTRACTION, 2, None, 1, 0.5),
        ]

    def test_len_does_not_build(self):
        plan = Plan()
        plan.step("map", label="m", phase=Phase.MAP)
        plan.step("reduce", label="reduce:0", reducer=0)
        assert len(plan) == 2 and plan._steps == []
        assert [step.uid for step in plan.steps] == [0, 1]
        assert len(plan) == 2 == len(plan.records)

    def test_a_read_in_mid_run_then_more_steps(self):
        plan = Plan()
        plan.step("map", label="m", phase=Phase.MAP, memo_uid=7)
        first = plan.steps[0]
        assert first == PlanStep(0, "map", "m", Phase.MAP, 0, 7, None, 1.0)
        plan.step("visit", label="straw:L0.0", phase=Phase.MEMO_READ, reducer=1)
        assert plan.steps[0] is first  # built once
        assert plan.steps[1].uid == 1 and plan.steps[1].reducer == 1
        assert plan.counts_by_op() == {"map": 1, "visit": 1}
        assert plan.signature() == tuple(s.signature() for s in plan.steps)

    def test_records_another_process_logged_take_their_place(self):
        worker, parent = Plan(), Plan()
        parent.step("map", label="m", phase=Phase.MAP)
        worker.step("combine", label="c", phase=Phase.CONTRACTION, reducer=0)
        parent.records.extend(worker.records)
        parent.step("reduce", label="reduce:0", phase=Phase.REDUCE, reducer=0)
        assert [(s.uid, s.op) for s in parent.steps] == [
            (0, "map"), (1, "combine"), (2, "reduce"),
        ]

    def test_unknown_op_is_refused(self):
        with pytest.raises(ValueError, match="unknown plan op"):
            Plan().step("fuse")
