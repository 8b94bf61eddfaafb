"""Unit tests for the scheduling policies, run one calm wave at a time."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    HadoopScheduler,
    HybridScheduler,
    MemoizationScheduler,
    SimTask,
    execute_two_waves,
    execute_wave,
)


def quiet_cluster(n=4, slots=1, **kwargs) -> Cluster:
    return Cluster(
        ClusterConfig(
            num_machines=n, slots_per_machine=slots, straggler_fraction=0.0, **kwargs
        )
    )


def wave(tasks, cluster, scheduler):
    report = execute_wave(tasks, cluster, scheduler)
    return report.makespan, report.assignments


def test_single_task_makespan_is_duration():
    cluster = quiet_cluster()
    makespan, log = wave(
        [SimTask("t", cost=10.0)], cluster, HadoopScheduler()
    )
    assert makespan == 10.0
    assert len(log) == 1


def test_parallel_tasks_spread_over_machines():
    cluster = quiet_cluster(n=4)
    tasks = [SimTask(f"t{i}", cost=10.0) for i in range(4)]
    makespan, log = wave(tasks, cluster, HadoopScheduler())
    assert makespan == 10.0
    assert len({a.machine_id for a in log}) == 4


def test_more_tasks_than_slots_queue():
    cluster = quiet_cluster(n=2, slots=1)
    tasks = [SimTask(f"t{i}", cost=10.0) for i in range(4)]
    makespan, _ = wave(tasks, cluster, HadoopScheduler())
    assert makespan == 20.0


def test_dead_machines_are_skipped():
    cluster = quiet_cluster(n=2, slots=1)
    cluster.kill(0)
    makespan, log = wave(
        [SimTask("a", 5.0), SimTask("b", 5.0)], cluster, HadoopScheduler()
    )
    assert makespan == 10.0
    assert all(a.machine_id == 1 for a in log)


def test_memoization_scheduler_honors_affinity():
    cluster = quiet_cluster(n=4)
    tasks = [
        SimTask(f"r{i}", cost=5.0, preferred_machine=2, fetch_bytes=100.0)
        for i in range(3)
    ]
    _, log = wave(tasks, cluster, MemoizationScheduler())
    assert all(a.machine_id == 2 for a in log)
    assert not any(a.fetched for a in log)


def test_hadoop_scheduler_fetches_remote_state():
    """First-free-slot placement pays the network fetch for memoized state."""
    cluster = quiet_cluster(n=4)
    tasks = [
        SimTask(f"r{i}", cost=5.0, preferred_machine=0, fetch_bytes=100.0)
        for i in range(4)
    ]
    _, log = wave(tasks, cluster, HadoopScheduler())
    fetched = [a for a in log if a.fetched]
    assert fetched  # spread across machines -> some remote reads
    expected_penalty = 100.0 * cluster.config.network_cost_per_byte
    for a in fetched:
        assert a.finish - a.start == pytest.approx(5.0 + expected_penalty)


def test_hybrid_migrates_off_stragglers():
    cluster = quiet_cluster(n=3)
    cluster.machine(0).straggle = 0.2  # heavy straggler holding the state
    task = SimTask("r", cost=10.0, preferred_machine=0, fetch_bytes=10.0)
    _, log = wave([task], cluster, HybridScheduler())
    assert log[0].machine_id != 0
    assert log[0].fetched


def test_hybrid_stays_local_when_machine_healthy():
    cluster = quiet_cluster(n=3)
    task = SimTask("r", cost=10.0, preferred_machine=1, fetch_bytes=10.0)
    _, log = wave([task], cluster, HybridScheduler())
    assert log[0].machine_id == 1
    assert not log[0].fetched


def test_hybrid_migrates_when_preferred_backed_up():
    cluster = quiet_cluster(n=2, slots=1)
    tasks = [
        SimTask(f"r{i}", cost=10.0, preferred_machine=0, fetch_bytes=1.0)
        for i in range(4)
    ]
    _, log = wave(tasks, cluster, HybridScheduler(patience=2.0))
    used = {a.machine_id for a in log}
    assert used == {0, 1}  # overflow migrated instead of queueing forever


def test_hybrid_beats_strict_memoization_under_stragglers():
    """The Table 1 effect: hybrid <= strict affinity when nodes straggle."""
    def build():
        cluster = quiet_cluster(n=4, slots=1)
        cluster.machine(0).straggle = 0.25
        tasks = [
            SimTask(f"r{i}", cost=10.0, preferred_machine=0, fetch_bytes=5.0)
            for i in range(4)
        ]
        return cluster, tasks

    cluster, tasks = build()
    strict_time, _ = wave(tasks, cluster, MemoizationScheduler())
    cluster, tasks = build()
    hybrid_time, _ = wave(tasks, cluster, HybridScheduler())
    assert hybrid_time < strict_time


def test_two_waves_are_sequential():
    cluster = quiet_cluster(n=2)
    maps = [SimTask("m", 10.0, kind="map")]
    reduces = [SimTask("r", 5.0)]
    report = execute_two_waves(maps, reduces, cluster, HadoopScheduler())
    assert report.makespan == 15.0
    reduce_log = [a for a in report.assignments if a.task.label == "r"]
    assert reduce_log[0].start == 10.0


def test_map_locality_preferred_by_hadoop():
    cluster = quiet_cluster(n=4)
    task = SimTask("m", cost=5.0, preferred_machine=3, fetch_bytes=50.0, kind="map")
    _, log = wave([task], cluster, HadoopScheduler())
    assert log[0].machine_id == 3
    assert not log[0].fetched
