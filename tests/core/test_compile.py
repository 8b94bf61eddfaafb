"""The plan compiler: a compiled plan is its source plan plus the op template.

The compile layer's contract, tested here in isolation from the slider
front end: compilation is shape-preserving — the source plan is carried
verbatim, so counts and signatures survive — and the plan's cached views
(what the cache key and the goldens read) invalidate on mutation.
"""

from repro.core.compile import CompiledPlan, compile_plan
from repro.core.plan import Plan, PlanStep
from repro.metrics import Phase


def build_plan(ops):
    """A synthetic plan from (op, label, n_inputs, reducer) tuples."""
    plan = Plan(label="synthetic")
    for op, label, n_inputs, reducer in ops:
        plan.step(
            op,
            label=label,
            phase=Phase.MAP if op == "map" else Phase.CONTRACTION,
            n_inputs=n_inputs,
            reducer=reducer,
        )
    return plan


class TestPlanCachedViews:
    def test_signature_cached_and_invalidated(self):
        plan = Plan(label="t")
        plan.step("map", label="map:s0", phase=Phase.MAP, n_inputs=1)
        first = plan.signature()
        assert plan.signature() is first  # cached object, not recomputed
        counts = plan.counts_by_op()
        counts["map"] = 99  # the returned dict is a copy
        assert plan.counts_by_op() == {"map": 1}
        plan.step("reduce", label="reduce:0", n_inputs=1, reducer=0)
        assert plan.signature() is not first
        assert plan.counts_by_op() == {"map": 1, "reduce": 1}

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


class TestCompiledPlanViews:
    def test_len_and_counts(self):
        plan = build_plan(
            [
                ("map", "map:s0", 1, None),
                ("map", "map:s1", 1, None),
                ("combine", "fold:L0.0", 2, 0),
            ]
        )
        compiled = compile_plan(plan)
        assert len(compiled) == 3
        assert isinstance(compiled, CompiledPlan)
        assert compiled.ops == ("map", "map", "combine")
        assert compiled.plan is plan
        assert compiled.shape() == plan.shape()
        assert compiled.structural_signature() == plan.structural_signature()
