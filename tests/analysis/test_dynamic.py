"""The dynamic vector-clock cross-check: recorder semantics, the
static-vs-dynamic contract on real engines across calm, chaos, and
recurring runs, each read off its log, and the wave barrier every
executed schedule keeps."""

from __future__ import annotations

import pytest

from repro.analysis.dynamic import DynamicRaceRecorder, clock_leq
from repro.analysis.races import analyze_plan
from repro.cluster import (
    ChaosSchedule,
    Cluster,
    ClusterConfig,
    HadoopScheduler,
    MachineCrash,
    SimTask,
    TaskAttempt,
    execute_two_waves,
)
from repro.core.plan import PlanStep
from repro.metrics import Phase
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.oracle.fleet import VARIANTS, count_job, split_of

def make_engine(variant, mode, **kwargs):
    window_mode = WindowMode(mode)
    return Slider(
        count_job("dynamic-check"),
        mode=window_mode,
        config=SliderConfig(tree=variant, mode=window_mode),
        **kwargs,
    )


def drive(engine, recorder, advances=3):
    """Run initial + advances and have the recorder read each run's log;
    returns the static race findings accumulated over every run's plan."""
    splits = [split_of(i, spread=9, n=12) for i in range(4 + advances)]
    removed = 0 if engine.mode is WindowMode.APPEND else 1
    results = [engine.initial_run(splits[:4])]
    for i in range(advances):
        results.append(engine.advance([splits[4 + i]], removed))
    static = []
    for result in results:
        recorder.read(result.plan.log)
        static.extend(analyze_plan(result.plan))
    return results, static


# -- clock semantics ---------------------------------------------------------


def test_clock_leq():
    assert clock_leq({"a": 1}, {"a": 2, "b": 1})
    assert not clock_leq({"a": 2}, {"a": 1})
    assert clock_leq({}, {"a": 1})


def test_map_steps_record_concurrent_distinct_slots():
    recorder = DynamicRaceRecorder()
    recorder.on_begin_run("r")
    recorder.on_step("map", memo_uid=0x1)
    recorder.on_step("map", memo_uid=0x2)
    assert recorder.conflicts == []
    assert recorder.events == 2


def test_duplicate_map_slot_is_observed_conflict():
    recorder = DynamicRaceRecorder()
    recorder.on_begin_run("r")
    recorder.on_step("map", memo_uid=0x9)
    recorder.on_step("map", memo_uid=0x9)
    assert len(recorder.conflicts) == 1
    assert recorder.conflicts[0].resource == "map_memo:0x9"
    assert not recorder.conflicts[0].benign


def test_run_boundary_is_a_barrier():
    recorder = DynamicRaceRecorder()
    recorder.on_begin_run("first")
    recorder.on_step("map", memo_uid=0x9)
    recorder.on_begin_run("second")
    recorder.on_step("map", memo_uid=0x9)  # re-mapped next run: ordered
    assert recorder.conflicts == []


def test_same_reducer_combines_are_ordered():
    recorder = DynamicRaceRecorder()
    recorder.on_begin_run("r")
    recorder.on_step("combine", reducer=0, memo_uid=0xA, hit=False)
    recorder.on_step("combine", reducer=0, memo_uid=0xA, hit=False)
    assert recorder.conflicts == []


def test_cross_reducer_memo_miss_is_benign_conflict():
    recorder = DynamicRaceRecorder()
    recorder.on_begin_run("r")
    recorder.on_step("combine", reducer=0, memo_uid=0xA, hit=False)
    recorder.on_step("combine", reducer=1, memo_uid=0xA, hit=False)
    conflicts = [c for c in recorder.conflicts]
    assert conflicts and all(c.benign for c in conflicts)
    assert recorder.unexplained([]) == []  # benign: needs no static cover


def test_cross_reducer_memo_hits_do_not_conflict():
    recorder = DynamicRaceRecorder()
    recorder.on_begin_run("r")
    recorder.on_step("combine", reducer=0, memo_uid=0xA, hit=True)
    recorder.on_step("combine", reducer=1, memo_uid=0xA, hit=True)
    assert recorder.conflicts == []  # both sides only read the slot


def test_unexplained_flags_conflicts_missing_from_static():
    recorder = DynamicRaceRecorder()
    recorder.on_begin_run("r")
    recorder.on_step("map", memo_uid=0x9)
    recorder.on_step("map", memo_uid=0x9)
    assert len(recorder.unexplained([])) == 1
    static = analyze_plan(_duplicate_map_plan())
    assert recorder.unexplained(static) == []  # static saw it too


def _duplicate_map_plan():
    return [
        PlanStep(uid, "map", "m", Phase.MAP, memo_uid=0x9) for uid in (0, 1)
    ]


def test_to_findings_renders_severities():
    recorder = DynamicRaceRecorder()
    recorder.on_begin_run("r")
    recorder.on_step("map", memo_uid=0x9)
    recorder.on_step("map", memo_uid=0x9)
    recorder.on_step("combine", reducer=0, memo_uid=0xA, hit=False)
    recorder.on_step("combine", reducer=1, memo_uid=0xA, hit=False)
    rules = {f.rule: f.severity for f in recorder.to_findings()}
    assert rules["dynamic.race"] == "error"
    assert rules["dynamic.idempotent-write"] == "info"


# -- the static-vs-dynamic contract on real engines --------------------------


@pytest.mark.parametrize(
    "variant,mode", [(variant, mode.value) for variant, mode in VARIANTS]
)
def test_static_pass_covers_execution(variant, mode):
    engine = make_engine(variant, mode)
    recorder = DynamicRaceRecorder()
    results, static = drive(engine, recorder, advances=3)
    assert recorder.events > 0
    missed = recorder.unexplained(static)
    assert missed == [], [c.resource for c in missed]


def test_static_pass_covers_compile_replay():
    engine = make_engine("folding", "variable")
    recorder = DynamicRaceRecorder()
    results, static = drive(engine, recorder, advances=6)
    # Steady-state advances start from a structural state the engine has
    # been in; each run's log still holds every step it executed.
    assert any(r.plan_cache_hit for r in results)
    assert recorder.unexplained(static) == []


def test_static_pass_covers_chaos_runs():
    chaos = ChaosSchedule(crashes=(MachineCrash(machine_id=1, time=2.0),))
    engine = make_engine(
        "folding",
        "variable",
        cluster=Cluster(
            ClusterConfig(
                num_machines=4, slots_per_machine=2, straggler_fraction=0.0
            )
        ),
        chaos=chaos,
    )
    recorder = DynamicRaceRecorder()
    results, static = drive(engine, recorder, advances=2)
    assert recorder.unexplained(static) == []


# -- the wave barrier in executed schedules -----------------------------------


def quiet_cluster(n=4, slots=2):
    return Cluster(
        ClusterConfig(
            num_machines=n, slots_per_machine=slots, straggler_fraction=0.0
        )
    )


def barrier_violations(assignments, map_finish):
    """Every reduce that started before the map wave finished."""
    return [
        a.task.label
        for a in assignments
        if a.task.kind == "reduce" and a.start < map_finish - 1e-9
    ]


def waves(maps, reduces, **kwargs):
    return execute_two_waves(
        [SimTask(label=f"m{i}", cost=c, kind="map") for i, c in enumerate(maps)],
        [SimTask(label=f"r{i}", cost=c, kind="reduce") for i, c in enumerate(reduces)],
        kwargs.pop("cluster", quiet_cluster()), HadoopScheduler(), **kwargs,
    )


def test_schedule_clocks_respect_dependencies():
    report = waves([1.0, 1.0, 3.0], [1.0, 2.0])
    assert report.map_finish == 3.0
    assert barrier_violations(report.assignments, report.map_finish) == []


def test_schedule_clocks_under_chaos():
    chaos = ChaosSchedule(crashes=(MachineCrash(machine_id=0, time=1.0),))
    report = waves(
        [1.0] * 4, [1.0, 1.0], cluster=quiet_cluster(3, 1), chaos=chaos
    )
    assert report.stats.crashes == 1
    assert barrier_violations(report.assignments, report.map_finish) == []


def test_broken_schedule_is_flagged():
    t0 = SimTask(label="t0", cost=5.0, kind="map")
    t1 = SimTask(label="t1", cost=1.0, kind="reduce")
    assignments = [
        TaskAttempt(
            task=t0, number=0, machine_id=0, slot_index=0, epoch=0,
            start=0.0, expected_finish=5.0, finish=5.0,
        ),
        TaskAttempt(  # starts before the map wave finishes
            task=t1, number=0, machine_id=1, slot_index=0, epoch=0,
            start=1.0, expected_finish=2.0, finish=2.0,
        ),
    ]
    assert barrier_violations(assignments, map_finish=5.0) == ["t1"]
