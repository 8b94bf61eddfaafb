"""Plan-level race detection: the happens-before model and conflicts — on
hand-built violating plans and on the real planners' output, calm, under a
machine crash, from recurring states and executed by worker processes."""

from __future__ import annotations

import pytest

from repro.analysis.races import (
    analyze_plan,
    find_races,
    happens_before,
    plan_footprints,
    step_footprint,
)
from repro.cluster import ChaosSchedule, Cluster, ClusterConfig, MachineCrash
from repro.core.plan import PlanStep
from repro.metrics import Phase
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.oracle.fleet import VARIANTS, count, count_job, split_of


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


#: (variant, window mode, how it runs): every variant calm, then the
#: folding tree under a machine crash mid-wave, over six advances (so that
#: it advances from structural states seen before), and on two workers.
REAL_RUNS = (
    *((variant, mode, "calm") for variant, mode in VARIANTS),
    ("folding", WindowMode.VARIABLE, "chaos"),
    ("folding", WindowMode.VARIABLE, "recurring"),
    ("folding", WindowMode.VARIABLE, "process"),
)


@pytest.mark.parametrize(
    "variant,mode,setting",
    REAL_RUNS,
    ids=[f"{v}-{s if s != 'calm' else m.value}" for v, m, s in REAL_RUNS],
)
def test_real_plans_are_race_free(variant, mode, setting):
    """Every run's plan is race free, whoever executed its steps: a
    worker's steps are in the parent's log, where the in-process run
    would have logged them."""
    advances, config, extras = 2, {}, {}
    if setting == "chaos":
        extras = dict(
            cluster=Cluster(
                ClusterConfig(
                    num_machines=4, slots_per_machine=2, straggler_fraction=0.0
                )
            ),
            chaos=ChaosSchedule(crashes=(MachineCrash(machine_id=1, time=2.0),)),
        )
    elif setting == "recurring":
        advances = 6
    elif setting == "process":
        advances, config = 12, {"execution_backend": "process", "workers": 2}
    engine = Slider(
        count_job("race-scan"),
        mode=mode,
        config=SliderConfig(tree=variant, mode=mode, **config),
        **extras,
    )
    try:
        splits = [split_of(i, spread=7, n=8) for i in range(4 + advances)]
        removed = 0 if mode is WindowMode.APPEND else 1
        results = [engine.initial_run(splits[:4])]
        results += [engine.advance([split], removed) for split in splits[4:]]
        for result in results:
            assert len(result.plan) > 0
            findings = analyze_plan(result.plan, where=f"{variant}:{result.run_index}")
            assert error_rules(findings) == [], [f.render() for f in findings]
        if setting == "recurring":
            assert any(result.plan_cache_hit for result in results)
        if setting == "process":
            assert count(engine, "backend.dispatched_reducers") > 0
    finally:
        engine.close()
