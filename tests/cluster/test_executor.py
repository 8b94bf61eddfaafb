"""Unit tests for the event-driven fault-tolerant executor."""

import pytest

from repro.cluster import (
    HEARTBEAT_TIMEOUT,
    MAX_ATTEMPTS,
    AttemptState,
    ChaosSchedule,
    Cluster,
    ClusterConfig,
    ExecutorHooks,
    HadoopScheduler,
    HybridScheduler,
    MachineCrash,
    MemoizationScheduler,
    SimTask,
    StraggleEpisode,
    TaskAttempt,
    TransientFaults,
    execute_two_waves,
    execute_wave,
)
from repro.common.errors import SchedulingError, TaskFailedError
from repro.common.rng import RngStream

POLICIES = [HadoopScheduler, MemoizationScheduler, HybridScheduler]


def quiet_cluster(n=4, slots=2, **kwargs) -> Cluster:
    return Cluster(
        ClusterConfig(
            num_machines=n,
            slots_per_machine=slots,
            straggler_fraction=0.0,
            **kwargs,
        )
    )


def greedy_reference(tasks, cluster, scheduler, start_time=0.0):
    """The original static list scheduler, kept as the equivalence oracle."""
    free_times = [
        [start_time] * m.slots if m.alive else [] for m in cluster.machines
    ]
    log = []
    finish_time = start_time
    for task in sorted(tasks, key=lambda t: (-t.cost, t.label)):
        machine_id, slot_index = scheduler.choose(task, free_times, cluster)
        machine = cluster.machine(machine_id)
        start = free_times[machine_id][slot_index]
        fetched = (
            task.preferred_machine is not None
            and task.preferred_machine != machine_id
        )
        duration = machine.duration_for(task.cost)
        if fetched:
            duration += task.fetch_bytes * cluster.config.network_cost_per_byte
        finish = start + duration
        free_times[machine_id][slot_index] = finish
        log.append((task.label, machine_id, start, finish, fetched))
        finish_time = max(finish_time, finish)
    return finish_time, log


def random_instance(case):
    rng = RngStream(case, "executor-equiv")
    n = int(rng.integers(1, 7))
    slots = int(rng.integers(1, 4))
    cluster = Cluster(
        ClusterConfig(
            num_machines=n,
            slots_per_machine=slots,
            straggler_fraction=0.0,
            seed=case,
        )
    )
    for machine in cluster.machines:
        if rng.coin(0.2):
            machine.straggle = float(rng.uniform(0.2, 1.0))
    for machine in cluster.machines[1:]:
        if rng.coin(0.15):
            machine.alive = False
    tasks = []
    for i in range(int(rng.integers(1, 16))):
        preferred = int(rng.integers(0, n)) if rng.coin(0.6) else None
        tasks.append(
            SimTask(
                f"t{i}",
                cost=float(rng.uniform(0.5, 20.0)),
                preferred_machine=preferred,
                fetch_bytes=float(rng.uniform(0, 200)),
                kind="map" if rng.coin(0.4) else "task",
            )
        )
    return cluster, tasks


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("case", range(25))
def test_fault_free_execution_matches_greedy_plan(case, policy):
    """With no chaos, the executor IS the greedy planner, bit for bit."""
    cluster, tasks = random_instance(case)
    scheduler = policy()
    expected_makespan, expected_log = greedy_reference(
        tasks, cluster, scheduler
    )
    report = execute_wave(tasks, cluster, scheduler)
    assert report.makespan == expected_makespan
    assert [
        (a.task.label, a.machine_id, a.start, a.finish, a.fetched)
        for a in report.assignments
    ] == expected_log


@pytest.mark.parametrize("policy", POLICIES)
def test_mid_wave_crash_completes_all_tasks(policy):
    """A mid-wave crash under every policy still finishes every task, and
    the recovery cost is visible in the stats."""
    tasks = [
        SimTask(f"t{i}", cost=10.0, preferred_machine=i % 4, fetch_bytes=25.0)
        for i in range(12)
    ]
    calm = execute_wave(tasks, quiet_cluster(), policy())
    cluster = quiet_cluster()
    chaos = ChaosSchedule(crashes=[MachineCrash(time=4.0, machine_id=1)])
    report = execute_wave(tasks, cluster, policy(), chaos=chaos)
    assert {a.task.label for a in report.assignments} == {
        t.label for t in tasks
    }
    assert {a.task.label for a in calm.assignments} == {t.label for t in tasks}
    assert report.stats.crashes == 1
    assert report.stats.crashes_detected == 1
    assert report.stats.lost_attempts >= 1
    assert report.stats.re_executed_attempts() >= 1
    assert report.stats.detection_delay > 0
    assert report.makespan >= calm.makespan
    # the dead machine hosts nothing after detection
    for attempt in report.attempts:
        if attempt.machine_id == 1 and attempt.state is AttemptState.FINISHED:
            assert attempt.finish <= 4.0 + HEARTBEAT_TIMEOUT


def test_crash_detection_waits_for_heartbeat_timeout():
    cluster = quiet_cluster(n=2, slots=1)
    tasks = [SimTask("a", cost=20.0, preferred_machine=0), SimTask("b", 20.0)]
    chaos = ChaosSchedule(crashes=[MachineCrash(time=2.0, machine_id=0)])
    report = execute_wave(tasks, cluster, MemoizationScheduler(), chaos=chaos)
    assert report.stats.lost_attempts == 1
    # detection happened exactly HEARTBEAT_TIMEOUT after the crash
    assert report.stats.detection_delay == pytest.approx(HEARTBEAT_TIMEOUT)
    lost = [a for a in report.attempts if a.state is AttemptState.LOST]
    assert lost and all(
        a.finish == pytest.approx(2.0 + HEARTBEAT_TIMEOUT) for a in lost
    )


def test_transient_failures_retry_with_backoff():
    cluster = quiet_cluster()
    tasks = [SimTask(f"t{i}", cost=5.0) for i in range(8)]
    chaos = ChaosSchedule(transient=TransientFaults(probability=0.3), seed=3)
    report = execute_wave(tasks, cluster, HadoopScheduler(), chaos=chaos)
    assert len(report.assignments) == 8
    assert report.stats.transient_failures >= 1
    assert report.stats.backoff_delay > 0
    assert report.stats.wasted_work > 0


def test_exhausted_attempts_raise_typed_error():
    cluster = quiet_cluster()
    chaos = ChaosSchedule(transient=TransientFaults(probability=1.0), seed=1)
    with pytest.raises(TaskFailedError) as excinfo:
        execute_wave(
            [SimTask("doomed", cost=4.0)],
            cluster,
            HadoopScheduler(),
            chaos=chaos,
        )
    assert excinfo.value.label == "doomed"
    assert excinfo.value.attempts == MAX_ATTEMPTS
    assert isinstance(excinfo.value, SchedulingError)


def test_recovered_machine_takes_new_work():
    cluster = quiet_cluster(n=2, slots=1)
    tasks = [SimTask(f"t{i}", cost=6.0) for i in range(6)]
    chaos = ChaosSchedule(
        crashes=[MachineCrash(time=1.0, machine_id=1, recover_at=12.0)]
    )
    report = execute_wave(tasks, cluster, HadoopScheduler(), chaos=chaos)
    assert report.stats.recoveries == 1
    assert cluster.machines[1].alive
    assert len(report.assignments) == 6
    late_on_revived = [
        a
        for a in report.assignments
        if a.machine_id == 1 and a.start >= 12.0
    ]
    assert late_on_revived, "revived machine should run tasks again"


def test_straggle_episode_slows_then_restores():
    cluster = quiet_cluster(n=1, slots=1)
    tasks = [SimTask(f"t{i}", cost=4.0) for i in range(3)]
    chaos = ChaosSchedule(
        straggles=[StraggleEpisode(machine_id=0, start=4.0, end=8.0, factor=0.5)]
    )
    report = execute_wave(tasks, cluster, HadoopScheduler(), chaos=chaos)
    # 4s at full speed, the second task runs (at least partly) at half
    # speed, so the wave takes longer than the calm 12s
    assert report.makespan > 12.0
    assert cluster.machines[0].straggle == 1.0  # restored afterwards


def test_two_wave_execution_keeps_barrier_under_chaos():
    cluster = quiet_cluster()
    maps = [SimTask(f"m{i}", cost=6.0, kind="map") for i in range(8)]
    reduces = [SimTask(f"r{i}", cost=4.0, kind="reduce") for i in range(4)]
    chaos = ChaosSchedule(crashes=[MachineCrash(time=2.0, machine_id=0)])
    report = execute_two_waves(maps, reduces, cluster, HybridScheduler(),
                               chaos=chaos)
    map_finishes = [
        a.finish for a in report.assignments if a.task.kind == "map"
    ]
    reduce_starts = [
        a.start for a in report.assignments if a.task.kind == "reduce"
    ]
    assert len(map_finishes) == 8 and len(reduce_starts) == 4
    assert max(map_finishes) == report.map_finish
    assert min(reduce_starts) >= report.map_finish
    assert report.makespan >= report.map_finish


def test_hooks_fire_in_crash_detect_order():
    cluster = quiet_cluster()
    events = []
    hooks = ExecutorHooks(
        on_crash=lambda m, t: events.append(("crash", m, t)),
        on_detect=lambda m, t: events.append(("detect", m, t)),
        on_recover=lambda m, t: events.append(("recover", m, t)),
    )
    chaos = ChaosSchedule(
        crashes=[MachineCrash(time=3.0, machine_id=2, recover_at=9.0)]
    )
    execute_wave(
        [SimTask(f"t{i}", cost=8.0) for i in range(10)],
        cluster,
        HadoopScheduler(),
        chaos=chaos,
        hooks=hooks,
    )
    kinds = [e[0] for e in events]
    assert kinds == ["crash", "detect", "recover"]
    assert events[0][2] == pytest.approx(3.0)
    assert events[1][2] == pytest.approx(3.0 + HEARTBEAT_TIMEOUT)
    assert events[2][2] == pytest.approx(9.0)


def test_all_machines_dead_raises():
    cluster = quiet_cluster(n=1, slots=1)
    chaos = ChaosSchedule(crashes=[MachineCrash(time=1.0, machine_id=0)])
    with pytest.raises(SchedulingError):
        execute_wave(
            [SimTask("t", cost=10.0)], cluster, HadoopScheduler(), chaos=chaos
        )


def test_a_cluster_down_before_the_wave_raises():
    cluster = quiet_cluster(n=2)
    for machine in cluster.machines:
        cluster.kill(machine.machine_id)
    with pytest.raises(SchedulingError, match="every machine is down"):
        execute_wave([SimTask("t", cost=1.0)], cluster, HybridScheduler())


@pytest.mark.parametrize("policy", POLICIES)
def test_a_policy_given_no_slot_raises(policy):
    with pytest.raises(ValueError, match="no schedulable slots"):
        policy().choose(SimTask("t", cost=1.0), [[], []], quiet_cluster(n=2))


def test_a_start_on_a_machine_that_just_died_is_a_ghost_until_detected():
    """The crash at 0.0 is handled before the wave's first starts at 0.0:
    the master still believes machine 0 alive and dispatches into the
    void, and the detection sweep reaps the ghosts."""
    cluster = quiet_cluster(n=2, slots=1)
    tasks = [SimTask(f"t{i}", cost=2.0) for i in range(4)]
    chaos = ChaosSchedule(crashes=[MachineCrash(time=0.0, machine_id=0)])
    report = execute_wave(tasks, cluster, HadoopScheduler(), chaos=chaos)
    ghosts = [a for a in report.attempts if a.ghost]
    assert ghosts and all(a.machine_id == 0 for a in ghosts)
    assert all(a.state is AttemptState.LOST for a in ghosts)
    assert all(a.finish == pytest.approx(HEARTBEAT_TIMEOUT) for a in ghosts)
    assert {a.task.label for a in report.assignments} == {t.label for t in tasks}
    assert all(a.machine_id == 1 for a in report.assignments)


def test_a_start_behind_a_zombie_replans():
    """Machine 0 dies mid-task: its next planned task finds the slot still
    held by the zombie at its start and is planned afresh elsewhere."""
    cluster = quiet_cluster(n=2, slots=1)
    tasks = [SimTask(f"t{i}", cost=2.0) for i in range(4)]
    chaos = ChaosSchedule(crashes=[MachineCrash(time=1.0, machine_id=0)])
    report = execute_wave(tasks, cluster, HadoopScheduler(), chaos=chaos)
    assert not any(a.ghost for a in report.attempts)
    assert report.stats.lost_attempts == 1
    assert {a.task.label for a in report.assignments} == {t.label for t in tasks}
    assert all(a.machine_id == 1 for a in report.assignments)


def test_a_crash_of_a_dead_machine_and_a_recovery_of_a_live_one_are_no_ops():
    cluster = quiet_cluster(n=2, slots=1)
    tasks = [SimTask(f"t{i}", cost=2.0) for i in range(6)]
    chaos = ChaosSchedule(
        crashes=[
            MachineCrash(time=1.0, machine_id=1, recover_at=2.0),
            MachineCrash(time=1.5, machine_id=1, recover_at=3.0),
        ]
    )
    report = execute_wave(tasks, cluster, HadoopScheduler(), chaos=chaos)
    assert report.stats.crashes == 1
    assert report.stats.recoveries == 1
    assert len(report.assignments) == 6


def test_same_chaos_seed_reproduces_recovery_trace():
    tasks = [SimTask(f"t{i}", cost=7.0, preferred_machine=i % 3) for i in range(9)]

    def run():
        cluster = quiet_cluster(n=3, slots=2)
        chaos = ChaosSchedule.random(
            cluster, seed=21, horizon=10.0, transient_rate=0.2
        )
        report = execute_wave(tasks, cluster, HybridScheduler(), chaos=chaos)
        return (
            report.makespan,
            [(a.task.label, a.machine_id, a.start, a.finish)
             for a in report.assignments],
            report.stats.as_dict(),
        )

    assert run() == run()


# -- the wave barrier in executed schedules -----------------------------------


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


def test_a_random_schedule_drawn_without_a_transient_rate_has_none():
    schedule = ChaosSchedule.random(quiet_cluster(), seed=3, horizon=10.0)
    assert schedule.transient is None
    assert not schedule.attempt_fails("t0", 0)
