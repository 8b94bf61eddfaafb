"""Plan-level race detection: the happens-before model and conflicts — on
hand-built violating plans and on the real planners' output."""

from __future__ import annotations

import pytest

from repro.analysis.races import (
    analyze_plan,
    find_races,
    happens_before,
    plan_footprints,
    step_footprint,
)
from repro.core.plan import Plan, PlanStep
from repro.metrics import Phase
from tests.oracle.fleet import VARIANTS, count_job, split_of


def error_rules(findings):
    return sorted(f.rule for f in findings if f.severity == "error")


# -- the happens-before model ------------------------------------------------


def test_map_steps_are_concurrent():
    plan = Plan()
    plan.step("map", label="map:0x1", phase=Phase.MAP, memo_uid=0x1)
    plan.step("map", label="map:0x2", phase=Phase.MAP, memo_uid=0x2)
    a, b = plan_footprints(plan)
    assert not happens_before(a, b) and not happens_before(b, a)


def test_map_barrier_orders_map_before_combine():
    plan = Plan()
    plan.step("map", label="map:0x1", phase=Phase.MAP, memo_uid=0x1)
    plan.step("combine", label="c:L0.0", phase=Phase.CONTRACTION, reducer=0)
    a, b = plan_footprints(plan)
    assert happens_before(a, b)


def test_same_lane_steps_are_ordered():
    plan = Plan()
    plan.step("combine", label="c1", phase=Phase.CONTRACTION, reducer=0)
    plan.step("combine", label="c2", phase=Phase.CONTRACTION, reducer=0)
    a, b = plan_footprints(plan)
    assert happens_before(a, b) and not happens_before(b, a)


def test_cross_reducer_steps_are_concurrent():
    plan = Plan()
    plan.step("combine", label="c1", phase=Phase.CONTRACTION, reducer=0)
    plan.step("combine", label="c2", phase=Phase.CONTRACTION, reducer=1)
    a, b = plan_footprints(plan)
    assert not happens_before(a, b) and not happens_before(b, a)


# -- conflicts ---------------------------------------------------------------


def test_duplicate_map_memo_uid_is_a_race():
    plan = Plan()
    plan.step("map", label="map:0x9", phase=Phase.MAP, memo_uid=0x9)
    plan.step("map", label="map:0x9", phase=Phase.MAP, memo_uid=0x9)
    findings = analyze_plan(plan)
    assert error_rules(findings) == ["races.plan-conflict"]


def test_cross_lane_memo_sharing_is_benign_idempotent():
    plan = Plan()
    plan.step(
        "combine", label="c:L0.0", phase=Phase.CONTRACTION,
        reducer=0, memo_uid=0xAB,
    )
    plan.step(
        "combine", label="c:L0.1", phase=Phase.CONTRACTION,
        reducer=1, memo_uid=0xAB,
    )
    findings = analyze_plan(plan)
    assert error_rules(findings) == []
    assert [f.rule for f in findings] == ["races.idempotent-write"]


def test_disjoint_reducers_have_no_findings():
    plan = Plan()
    plan.step("map", label="map:0x1", phase=Phase.MAP, memo_uid=0x1)
    plan.step(
        "combine", label="c:L0.0", phase=Phase.CONTRACTION,
        reducer=0, memo_uid=0x10,
    )
    plan.step(
        "combine", label="c:L0.1", phase=Phase.CONTRACTION,
        reducer=1, memo_uid=0x20,
    )
    plan.step("reduce", label="reduce:0", phase=Phase.REDUCE, reducer=0)
    plan.step("reduce", label="reduce:1", phase=Phase.REDUCE, reducer=1)
    assert analyze_plan(plan) == []


def test_engine_lane_serializes_unattributed_steps():
    plan = Plan()
    plan.step("combine", label="c1", phase=Phase.CONTRACTION, memo_uid=0x5)
    plan.step("combine", label="c2", phase=Phase.CONTRACTION, memo_uid=0x5)
    assert analyze_plan(plan) == []  # same engine lane: ordered


def test_footprint_shapes():
    step = PlanStep(uid=0, op="reduce", label="reduce:3", reducer=3)
    fp = step_footprint(step)
    assert "reduce_memo:reducer:3" in fp.writes
    assert "tree:reducer:3" in fp.reads


def test_find_races_returns_pairs():
    plan = Plan()
    plan.step("map", label="m", phase=Phase.MAP, memo_uid=0x7)
    plan.step("map", label="m", phase=Phase.MAP, memo_uid=0x7)
    races = find_races(plan_footprints(plan))
    assert len(races) == 1
    assert races[0].resources == frozenset({"map_memo:0x7"})
    assert not races[0].benign


# -- real planner output -----------------------------------------------------


@pytest.mark.parametrize(
    "variant,mode", [(variant, mode.value) for variant, mode in VARIANTS]
)
def test_real_plans_are_race_free(variant, mode):
    from repro.slider.system import Slider, SliderConfig
    from repro.slider.window import WindowMode

    window_mode = WindowMode(mode)
    engine = Slider(
        count_job("race-scan"),
        mode=window_mode,
        config=SliderConfig(tree=variant, mode=window_mode),
    )
    splits = [split_of(i, spread=7, n=8) for i in range(6)]
    results = [engine.initial_run(splits[:4])]
    removed = 0 if window_mode is WindowMode.APPEND else 1
    results.append(engine.advance([splits[4]], removed))
    results.append(engine.advance([splits[5]], removed))
    for result in results:
        findings = analyze_plan(result.plan, where=f"{variant}:{result.run_index}")
        assert error_rules(findings) == [], [f.render() for f in findings]
