"""Graceful degradation: poison quarantine, memo budgets, backing loss."""

import pytest

from repro.cluster.machine import Cluster, ClusterConfig
from repro.common.errors import SchedulingError
from repro.core.poison import PoisonPolicy
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import Split
from repro.slider.system import Slider, SliderConfig
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


def test_poison_record_quarantined_to_dead_letters():
    slider = Slider(
        _poison_job(),
        config=SliderConfig(poison_policy=PoisonPolicy(max_retries=2)),
    )
    result = slider.initial_run(
        [Split.from_records(["a", "boom", "b"], label="s0")]
    )
    assert result.outputs == {"a": 1, "b": 1}
    assert len(result.dead_letters) == 1
    letter = result.dead_letters[0]
    assert letter.stage == "map"
    assert letter.unit == "boom"
    assert letter.attempts == 3  # original + two retries
    assert letter.backoff == pytest.approx(
        PoisonPolicy(max_retries=2).total_backoff(3)
    )
    assert "ValueError" in letter.error
    assert slider.telemetry.counters["poison.dead_letters"] == 1


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
def test_poison_record_of_a_generator_map_fn_is_quarantined(map_fn):
    """A generator's body runs when its pairs are drained, not when
    ``map_fn`` is called: the policy covers that too, and a record that
    fails after a ``yield`` leaves nothing of itself in the partition."""
    slider = Slider(
        _generator_job(map_fn),
        config=SliderConfig(poison_policy=PoisonPolicy(max_retries=2)),
    )
    result = slider.initial_run(
        [Split.from_records(["a", "boom", "b"], label="s0")]
    )
    assert result.outputs == {"a": 1, "b": 1}
    assert [(l.stage, l.unit, l.attempts) for l in result.dead_letters] == [
        ("map", "boom", 3)
    ]
    # The attempts ran: the quarantined record still pays its map cost,
    # and emitted no pair to pay shuffle cost for.
    costs = slider.job.costs
    assert result.report.breakdown["map"] == 3 * costs.map_cost_per_record
    assert result.report.breakdown["shuffle"] == 2 * costs.shuffle_cost_per_pair


@pytest.mark.parametrize("map_fn", GENERATOR_MAP_FNS)
def test_poison_generator_without_policy_propagates(map_fn):
    slider = Slider(_generator_job(map_fn))
    with pytest.raises(ValueError, match="poison record"):
        slider.initial_run([Split.from_records(["a", "boom"], label="s0")])


def test_poison_key_dropped_from_combine():
    slider = Slider(
        _poison_job(combiner=_BoomCombiner()),
        config=SliderConfig(poison_policy=PoisonPolicy(max_retries=1)),
    )
    result = slider.initial_run(
        [Split.from_records(["a", "bad", "bad", "b"], label="s0")]
    )
    assert result.outputs == {"a": 1, "b": 1}
    assert any(
        letter.stage == "combine" and letter.unit == "bad"
        for letter in result.dead_letters
    )


def test_dead_letters_reset_between_runs():
    slider = Slider(
        _poison_job(),
        config=SliderConfig(poison_policy=PoisonPolicy(max_retries=0)),
    )
    first = slider.initial_run(
        [Split.from_records(["a", "boom"], label="s0")]
    )
    assert len(first.dead_letters) == 1
    second = slider.advance([Split.from_records(["c"], label="s1")], 0)
    assert second.dead_letters == ()
    assert second.outputs == {"a": 1, "c": 1}


RANDOMIZED = case_of("randomized")  # the content-memoized variant


def test_memo_budget_degrades_toward_recomputation():
    """A zero budget degrades every sub-computation to recomputation, on
    every arm alike: outputs and numbers stay the fleet's."""
    with Fleet(RANDOMIZED, arms=("reference", "paranoid"), memo_budget=0) as fleet:
        fleet.advance(3, 0)
        fleet.steady(4)
        fleet.check()
        engine = fleet.reference
        skipped = sum(t.memo.stats.skipped_stores for t in engine.trees)
        assert skipped > 0
        assert engine.telemetry.counters["memo.skipped_stores"] == skipped
        assert all(len(t.memo.entries) == 0 for t in engine.trees)


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
