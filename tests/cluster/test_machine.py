"""Unit tests for machines and cluster construction."""

import pytest

from repro.cluster.machine import Cluster, ClusterConfig, Machine
from repro.common.errors import SchedulingError


def test_dead_machine_rejects_execution():
    machine = Machine(0, alive=False)
    with pytest.raises(SchedulingError):
        machine.duration_for(1.0)


def test_straggler_slows_machine():
    machine = Machine(0, straggle=0.5)
    assert machine.duration_for(10.0) == 20.0


def test_cluster_builds_configured_machines():
    cluster = Cluster(ClusterConfig(num_machines=5, slots_per_machine=3))
    assert len(cluster) == 5
    assert all(m.slots == 3 for m in cluster.machines)


def test_cluster_requires_machines():
    with pytest.raises(SchedulingError):
        Cluster(ClusterConfig(num_machines=0))


def test_straggler_assignment_is_deterministic():
    a = Cluster(ClusterConfig(num_machines=24, seed=9))
    b = Cluster(ClusterConfig(num_machines=24, seed=9))
    ids_a = [m.machine_id for m in a.machines if m.straggle < 1.0]
    ids_b = [m.machine_id for m in b.machines if m.straggle < 1.0]
    assert ids_a == ids_b
    assert ids_a  # 8% of 24 rounds to 2 stragglers


def test_kill_and_revive():
    cluster = Cluster(ClusterConfig(num_machines=3, straggler_fraction=0.0))
    cluster.kill(1)
    assert [m.machine_id for m in cluster.alive_machines()] == [0, 2]
    cluster.revive(1)
    assert len(cluster.alive_machines()) == 3


def test_all_dead_raises():
    cluster = Cluster(ClusterConfig(num_machines=2, straggler_fraction=0.0))
    cluster.kill(0)
    cluster.kill(1)
    with pytest.raises(SchedulingError):
        cluster.alive_machines()


def test_kill_unknown_machine_raises_scheduling_error():
    cluster = Cluster(ClusterConfig(num_machines=3, straggler_fraction=0.0))
    for bogus in (-1, 3, 99):
        with pytest.raises(SchedulingError):
            cluster.kill(bogus)
        with pytest.raises(SchedulingError):
            cluster.revive(bogus)
        with pytest.raises(SchedulingError):
            cluster.machine(bogus)


def test_kill_dead_machine_warns_and_is_noop():
    cluster = Cluster(ClusterConfig(num_machines=2, straggler_fraction=0.0))
    cluster.kill(0)
    with pytest.warns(RuntimeWarning, match="already dead"):
        cluster.kill(0)
    assert not cluster.machine(0).alive
    assert cluster.machine(1).alive


def test_revive_alive_machine_warns_and_is_noop():
    cluster = Cluster(ClusterConfig(num_machines=2, straggler_fraction=0.0))
    with pytest.warns(RuntimeWarning, match="already alive"):
        cluster.revive(0)
    assert cluster.machine(0).alive


def test_assign_stragglers_skips_dead_machines():
    cluster = Cluster(
        ClusterConfig(num_machines=10, straggler_fraction=0.3, seed=4)
    )
    for machine_id in (0, 1, 2):
        cluster.kill(machine_id)
    for _ in range(20):
        ids = cluster.assign_stragglers()
        assert ids, "straggler budget should still be spent"
        assert all(cluster.machine(i).alive for i in ids)
