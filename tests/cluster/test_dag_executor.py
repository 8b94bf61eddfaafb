"""Two-wave execution: the barrier, longest-first order, the makespan's bounds.

The ids are those of the dependency-aware executor the wave model
replaced; each now checks the closest property of the two waves
(EXPERIMENTS.md § "One time model" maps every id to its check).
"""

import pytest

import repro.cluster
from repro.cluster import (
    ChaosSchedule,
    Cluster,
    ClusterConfig,
    HadoopScheduler,
    HybridScheduler,
    MachineCrash,
    SimTask,
    execute_two_waves,
    execute_wave,
)
from repro.common.errors import SchedulingError


def quiet_cluster(n=4, slots=2, **kwargs) -> Cluster:
    return Cluster(
        ClusterConfig(
            num_machines=n,
            slots_per_machine=slots,
            straggler_fraction=0.0,
            **kwargs,
        )
    )


def task(label, cost=1.0, kind="map", preferred=None):
    return SimTask(label=label, cost=cost, kind=kind,
                   preferred_machine=preferred)


def starts(report):
    return {a.task.label: a.start for a in report.assignments}


def reduces_wait_for_maps(report):
    reduce_starts = [a.start for a in report.assignments if a.task.kind == "reduce"]
    return all(start >= report.map_finish for start in reduce_starts)


class TestCriticalPathPriority:
    def test_chain_accumulates_downward(self):
        """On one slot a wave runs heaviest first, so each start is the
        sum of the heavier costs before it."""
        tasks = [task("a", 1.0), task("b", 2.0), task("c", 4.0)]
        report = execute_wave(tasks, quiet_cluster(1, 1), HadoopScheduler())
        assert starts(report) == {"c": 0.0, "b": 4.0, "a": 6.0}

    def test_diamond_takes_heavier_branch(self):
        """The barrier waits for the heaviest map, whatever the others."""
        maps = [task("a", 1.0), task("b", 10.0), task("c", 2.0)]
        report = execute_two_waves(
            maps, [task("d", 3.0, kind="reduce")], quiet_cluster(),
            HadoopScheduler(),
        )
        assert (report.map_finish, report.makespan) == (10.0, 13.0)

    def test_cycle_raises(self):
        """A wave that can never be placed raises instead of waiting."""
        chaos = ChaosSchedule(crashes=(MachineCrash(machine_id=0, time=1.0),))
        with pytest.raises(SchedulingError):
            execute_two_waves(
                [task("m", 10.0)], [task("r", 1.0, kind="reduce")],
                quiet_cluster(1, 1), HadoopScheduler(), chaos=chaos,
            )


class TestExecuteDag:
    def test_chain_is_serialised(self):
        """The barrier serialises the waves however many slots are free."""
        report = execute_two_waves(
            [task("m")], [task("r", kind="reduce")], quiet_cluster(8),
            HadoopScheduler(),
        )
        assert report.makespan == pytest.approx(2.0)

    def test_independent_tasks_run_in_parallel(self):
        tasks = [task(f"t{i}", 1.0) for i in range(6)]
        report = execute_wave(tasks, quiet_cluster(4, 2), HadoopScheduler())
        assert report.makespan == pytest.approx(1.0)

    def test_makespan_at_least_critical_path(self):
        """Heaviest map plus heaviest reduce bounds the makespan below."""
        maps = [task("a", 2.0), task("b", 3.0)]
        reduces = [task("c", 1.0, kind="reduce"), task("d", 4.0, kind="reduce")]
        report = execute_two_waves(maps, reduces, quiet_cluster(), HadoopScheduler())
        assert report.makespan >= 3.0 + 4.0 - 1e-9

    def test_dependent_starts_after_its_deps_finish(self):
        maps = [task("a", 2.0), task("b", 5.0)]
        report = execute_two_waves(
            maps, [task("c", 1.0, kind="reduce")], quiet_cluster(),
            HadoopScheduler(),
        )
        assert report.map_finish == 5.0 and reduces_wait_for_maps(report)

    def test_critical_path_scheduled_first(self):
        """With one slot, the heaviest task starts first."""
        tasks = [task("head", 1.0), task("tail", 9.0), task("loner", 1.0)]
        report = execute_wave(tasks, quiet_cluster(1, 1), HadoopScheduler())
        assert starts(report)["tail"] == 0.0
        assert report.makespan == pytest.approx(11.0)

    def test_no_barrier_beats_two_waves(self):
        """A reduce whose inputs are ready early still waits for the last
        map: the barrier is the paper's job model."""
        maps = [task(f"m{i}", 1.0) for i in range(2)] + [task("m-slow", 10.0)]
        reduces = [task("r0", 5.0, kind="reduce"),
                   task("r1", 5.0, kind="reduce")]
        report = execute_two_waves(maps, reduces, quiet_cluster(4), HadoopScheduler())
        assert min(starts(report)[r.label] for r in reduces) == 10.0
        assert report.makespan == 15.0

    def test_duplicate_label_rejected(self):
        """Labels are names, not identities: two tasks sharing one both run."""
        report = execute_wave(
            [task("x"), task("x")], quiet_cluster(), HadoopScheduler()
        )
        assert [a.task.label for a in report.assignments] == ["x", "x"]

    def test_unknown_dependency_rejected(self):
        """No maps: the reduce wave starts at once."""
        report = execute_two_waves(
            [], [task("r", 3.0, kind="reduce")], quiet_cluster(),
            HadoopScheduler(),
        )
        assert (report.map_finish, report.makespan) == (0.0, 3.0)

    def test_unknown_dependent_rejected(self):
        """No reduces: the job ends at the barrier."""
        report = execute_two_waves(
            [task("m", 3.0)], [], quiet_cluster(), HadoopScheduler()
        )
        assert report.makespan == report.map_finish == 3.0

    def test_cycle_rejected(self):
        """The DAG entry points are gone; two waves is the one time model."""
        for name in ("execute_dag", "DagExecutor", "critical_path_priority",
                     "simulate_wave", "simulate_two_waves"):
            assert not hasattr(repro.cluster, name), name

    def test_deterministic(self):
        maps = [task(f"t{i}", float(1 + i % 3)) for i in range(9)]
        reduces = [task(f"r{i}", 2.0, kind="reduce") for i in range(3)]
        runs = [
            execute_two_waves(maps, reduces, quiet_cluster(3), HybridScheduler())
            for _ in range(2)
        ]
        assert runs[0].makespan == runs[1].makespan
        assert [a.machine_id for a in runs[0].assignments] == [
            a.machine_id for a in runs[1].assignments
        ]

    def test_zero_cost_tasks_complete(self):
        report = execute_two_waves(
            [task("a", 0.0), task("b", 0.0)], [task("c", 1.0, kind="reduce")],
            quiet_cluster(), HadoopScheduler(),
        )
        assert report.makespan == pytest.approx(1.0)
        assert len(report.assignments) == 3

    def test_map_finish_tracks_map_kind(self):
        report = execute_two_waves(
            [task("m", 2.0)], [task("r", 3.0, kind="reduce")], quiet_cluster(),
            HadoopScheduler(),
        )
        assert report.map_finish == pytest.approx(2.0)
        assert report.makespan == pytest.approx(5.0)

    def test_survives_machine_crash(self):
        """A crash mid-map-wave loses the running attempt; the task retries
        and the reduces still start after the barrier."""
        maps = [task(f"t{i}", 4.0) for i in range(3)]
        chaos = ChaosSchedule(crashes=(MachineCrash(machine_id=0, time=1.0),))
        report = execute_two_waves(
            maps, [task("r", 4.0, kind="reduce")], quiet_cluster(3, 1),
            HadoopScheduler(), chaos=chaos,
        )
        assert len(report.assignments) == 4
        assert report.stats.crashes == 1
        assert report.stats.lost_attempts >= 1
        assert reduces_wait_for_maps(report)
