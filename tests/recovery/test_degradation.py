"""Graceful degradation: backing loss, and user-code failures propagate."""

import pytest

from repro.cluster.machine import Cluster, ClusterConfig
from repro.common.errors import SchedulingError
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import Split
from repro.slider.system import Slider
from tests.oracle.fleet import Fleet, case_of, count_job, split_of


class _BoomCombiner(SumCombiner):
    """Raises on one poisoned key; well-behaved everywhere else."""

    def merge(self, key, values):
        if key == "bad":
            raise RuntimeError("poisoned key")
        return super().merge(key, values)


def _poison_job(combiner=None) -> MapReduceJob:
    def map_fn(record):
        if record == "boom":
            raise ValueError("poison record")
        return [(record, 1)]

    return MapReduceJob(
        name="poison-job",
        map_fn=map_fn,
        combiner=combiner or SumCombiner(),
        num_reducers=2,
    )


def test_poison_without_policy_propagates():
    slider = Slider(_poison_job())
    with pytest.raises(ValueError, match="poison record"):
        slider.initial_run([Split.from_records(["a", "boom"], label="s0")])


def _raises_before_first_yield(record):
    if record == "boom":
        raise ValueError("poison record")
    yield (record, 1)


def _raises_after_one_yield(record):
    yield (record, 1)
    if record == "boom":
        raise ValueError("poison record")


GENERATOR_MAP_FNS = [_raises_before_first_yield, _raises_after_one_yield]


def _generator_job(map_fn) -> MapReduceJob:
    return MapReduceJob(
        name="poison-generator-job",
        map_fn=map_fn,
        combiner=SumCombiner(),
        num_reducers=2,
    )


@pytest.mark.parametrize("map_fn", GENERATOR_MAP_FNS)
def test_poison_generator_without_policy_propagates(map_fn):
    slider = Slider(_generator_job(map_fn))
    with pytest.raises(ValueError, match="poison record"):
        slider.initial_run([Split.from_records(["a", "boom"], label="s0")])


@pytest.mark.parametrize(
    "records,kernel",
    [
        # Two ``bad`` in one split: the Map task's local combine merges.
        ([["a", "bad", "bad"]], "from_value_lists"),
        # One ``bad`` in each of two splits: the tree's combine merges.
        ([["a", "bad"], ["bad", "b"]], "combine_charged"),
    ],
)
def test_a_raising_merge_propagates(records, kernel):
    slider = Slider(_poison_job(combiner=_BoomCombiner()))
    splits = [Split.from_records(r, label=f"s{i}") for i, r in enumerate(records)]
    with pytest.raises(RuntimeError, match="poisoned key") as raised:
        slider.initial_run(splits)
    assert raised.traceback[-2].name == kernel


RANDOMIZED = case_of("randomized")  # the content-memoized variant


def _outage():
    """A randomized tree with a cluster arm whose cache refused writes
    for one advance (a transient outage), and how many tables that
    degraded; outputs stayed the healthy reference's."""
    fleet = Fleet(RANDOMIZED, arms=("reference", "cluster"))
    fleet.advance(3, 0)
    assert fleet.fail_backing()
    fleet.check()
    engine = fleet.engines["cluster"]
    return fleet, engine, sum(1 for t in engine.trees if t.memo.degraded)


def test_backing_failure_degrades_to_local_only():
    fleet, engine, degraded = _outage()
    with fleet:
        assert degraded > 0
        assert engine.telemetry.counters["memo.degraded"] == degraded


def test_degraded_tables_rearm_at_next_run_start():
    """A backing failure degrades a table for *its* run only: the next
    run's start re-arms it (the backing may have been repaired in
    between), counts ``memo.degraded_resets``, and emits a
    ``memo.degraded_reset`` telemetry instant."""
    fleet, engine, degraded = _outage()
    with fleet:
        fleet.advance()  # the backing "was repaired"
        fleet.check()
        assert engine.telemetry.counters["memo.degraded_resets"] == degraded > 0
        assert any(
            event["name"] == "memo.degraded_reset"
            for event in engine.telemetry.instants
        )
        # With the backing healthy again, nothing re-degraded.
        assert not any(t.memo.degraded for t in engine.trees)


def test_on_machine_failure_requires_a_cluster():
    slider = Slider(count_job())
    slider.initial_run([split_of(0)])
    with pytest.raises(SchedulingError, match="without a cluster"):
        slider.lifecycle.on_machine_failure(0)


def test_on_machine_failure_rejects_unknown_machine():
    cluster = Cluster(ClusterConfig(num_machines=3, straggler_fraction=0.0))
    slider = Slider(count_job(), cluster=cluster)
    slider.initial_run([split_of(0)])
    with pytest.raises(SchedulingError, match="unknown machine"):
        slider.lifecycle.on_machine_failure(99)
