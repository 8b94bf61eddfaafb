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
from repro.core.plan import PlanStep
from repro.metrics import Phase
from tests.oracle.fleet import VARIANTS, count_job, split_of


def error_rules(findings):
    return sorted(f.rule for f in findings if f.severity == "error")


# -- the happens-before model ------------------------------------------------


def plan(*steps: dict) -> list[PlanStep]:
    """A hand-built plan: one ``PlanStep`` a dict of its fields."""
    return [PlanStep(uid, **fields) for uid, fields in enumerate(steps)]


def mapped(uid: int) -> dict:
    return dict(op="map", label=f"map:{uid:#x}", phase=Phase.MAP, memo_uid=uid)


def combined(label: str, **fields) -> dict:
    return dict(op="combine", label=label, phase=Phase.CONTRACTION, **fields)


def test_map_steps_are_concurrent():
    a, b = plan_footprints(plan(mapped(0x1), mapped(0x2)))
    assert not happens_before(a, b) and not happens_before(b, a)


def test_map_barrier_orders_map_before_combine():
    a, b = plan_footprints(plan(mapped(0x1), combined("c:L0.0", reducer=0)))
    assert happens_before(a, b)


def test_same_lane_steps_are_ordered():
    a, b = plan_footprints(
        plan(combined("c1", reducer=0), combined("c2", reducer=0))
    )
    assert happens_before(a, b) and not happens_before(b, a)


def test_cross_reducer_steps_are_concurrent():
    a, b = plan_footprints(
        plan(combined("c1", reducer=0), combined("c2", reducer=1))
    )
    assert not happens_before(a, b) and not happens_before(b, a)


# -- conflicts ---------------------------------------------------------------


def test_duplicate_map_memo_uid_is_a_race():
    findings = analyze_plan(plan(mapped(0x9), mapped(0x9)))
    assert error_rules(findings) == ["races.plan-conflict"]


def test_cross_lane_memo_sharing_is_benign_idempotent():
    findings = analyze_plan(
        plan(
            combined("c:L0.0", reducer=0, memo_uid=0xAB),
            combined("c:L0.1", reducer=1, memo_uid=0xAB),
        )
    )
    assert error_rules(findings) == []
    assert [f.rule for f in findings] == ["races.idempotent-write"]


def test_disjoint_reducers_have_no_findings():
    reduces = [
        dict(op="reduce", label=f"reduce:{r}", phase=Phase.REDUCE, reducer=r)
        for r in (0, 1)
    ]
    steps = plan(
        mapped(0x1),
        combined("c:L0.0", reducer=0, memo_uid=0x10),
        combined("c:L0.1", reducer=1, memo_uid=0x20),
        *reduces,
    )
    assert analyze_plan(steps) == []


def test_engine_lane_serializes_unattributed_steps():
    steps = plan(combined("c1", memo_uid=0x5), combined("c2", memo_uid=0x5))
    assert analyze_plan(steps) == []  # same engine lane: ordered


def test_footprint_shapes():
    step = PlanStep(uid=0, op="reduce", label="reduce:3", reducer=3)
    fp = step_footprint(step)
    assert "reduce_memo:reducer:3" in fp.writes
    assert "tree:reducer:3" in fp.reads


def test_find_races_returns_pairs():
    races = find_races(plan_footprints(plan(mapped(0x7), mapped(0x7))))
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
