"""Unit tests for splits, windows, partitioning, and map-task execution."""

import dataclasses

import pytest

from repro.apps.registry import APP_REGISTRY
from repro.core.partition import Partition
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import CostModel, MapReduceJob
from repro.mapreduce.runtime import BatchRuntime
from repro.mapreduce.shuffle import (
    HashPartitioner,
    run_map_task,
    shuffle_map_outputs,
)
from repro.mapreduce.types import Split, SplitWindow, make_splits
from repro.metrics import Phase, WorkMeter
from repro.slider.system import Slider


# -- splits ------------------------------------------------------------------


def test_split_uid_is_content_based():
    a = Split.from_records(["x", "y"], label="s")
    b = Split.from_records(["x", "y"], label="s")
    assert a.uid == b.uid


def test_split_uid_depends_on_label_and_content():
    base = Split.from_records(["x"], label="s")
    assert base.uid != Split.from_records(["x"], label="t").uid
    assert base.uid != Split.from_records(["y"], label="s").uid


def test_make_splits_chops_evenly():
    splits = make_splits(list(range(10)), split_size=3)
    assert [len(s) for s in splits] == [3, 3, 3, 1]
    assert splits[0].records == (0, 1, 2)


def test_make_splits_validation():
    with pytest.raises(ValueError):
        make_splits([1], split_size=0)


# -- windows -----------------------------------------------------------------


def test_window_append_and_drop():
    window = SplitWindow()
    splits = make_splits(list(range(6)), 2)
    window.append(splits)
    assert len(window) == 3
    dropped = window.drop_front(2)
    assert dropped == splits[:2]
    assert list(window) == splits[2:]
    assert window.total_records() == 2


def test_window_drop_validation():
    window = SplitWindow()
    window.append(make_splits([1, 2], 1))
    with pytest.raises(ValueError):
        window.drop_front(3)
    with pytest.raises(ValueError):
        window.drop_front(-1)


# -- partitioner ---------------------------------------------------------------


def test_partitioner_is_stable_and_in_range():
    partitioner = HashPartitioner(4)
    for key in ["a", "b", ("x", 1), 42]:
        p = partitioner.partition(key)
        assert 0 <= p < 4
        assert p == partitioner.partition(key)


def test_partitioner_spreads_keys():
    partitioner = HashPartitioner(4)
    buckets = {partitioner.partition(f"key{i}") for i in range(100)}
    assert buckets == {0, 1, 2, 3}


def test_partitioner_validation():
    with pytest.raises(ValueError):
        HashPartitioner(0)


# -- map task -------------------------------------------------------------------


def word_job():
    return MapReduceJob(
        name="wc",
        map_fn=lambda line: [(w, 1) for w in line.split()],
        combiner=SumCombiner(),
        num_reducers=2,
        costs=CostModel(map_cost_per_record=2.0),
    )


def test_run_map_task_partitions_by_key():
    job = word_job()
    partitioner = HashPartitioner(2)
    outputs = run_map_task(job, ["a b a"], partitioner)
    assert len(outputs) == 2
    merged = {}
    for part in outputs:
        merged.update(part.entries)
    assert merged == {"a": 2, "b": 1}


def test_run_map_task_charges_meter():
    job = word_job()
    meter = WorkMeter()
    run_map_task(job, ["a b", "c d"], HashPartitioner(2), meter)
    assert meter.by_phase[Phase.MAP] == 4.0  # 2 records x cost 2
    assert meter.by_phase[Phase.SHUFFLE] > 0


def test_shuffle_transposes_outputs():
    job = word_job()
    partitioner = HashPartitioner(2)
    m0 = run_map_task(job, ["a"], partitioner)
    m1 = run_map_task(job, ["b"], partitioner)
    per_reducer = shuffle_map_outputs([m0, m1], 2)
    assert len(per_reducer) == 2
    assert len(per_reducer[0]) == 2  # one leaf per map task, in order
    assert per_reducer[0][0] is m0[0]
    assert per_reducer[1][1] is m1[1]


def test_shuffle_validates_partition_count():
    with pytest.raises(ValueError):
        shuffle_map_outputs([[None]], 2)


# -- routing ------------------------------------------------------------------------


class _CountingPartitioner(HashPartitioner):
    def __init__(self, num_partitions):
        super().__init__(num_partitions)
        self.asked = []

    def partition(self, key, encoded=None):
        self.asked.append(key)
        return super().partition(key, encoded)


def _route_every_pair(job, records, partitioner):
    """The reference: ask the partitioner about every emitted pair."""
    buffers = [{} for _ in range(partitioner.num_partitions)]
    for record in records:
        for key, value in job.map_fn(record):
            buffers[partitioner.partition(key)].setdefault(key, []).append(value)
    return [Partition.from_value_lists(buffer, job.combiner) for buffer in buffers]


@pytest.mark.parametrize("app", sorted(APP_REGISTRY))
def test_a_map_task_routes_each_distinct_key_once_as_the_partitioner_says(app):
    spec = APP_REGISTRY[app]
    job = spec.make_job()
    for split in spec.make_splits(3, 5):
        counting = _CountingPartitioner(job.num_reducers)
        outputs = run_map_task(job, split.records, counting)
        expected = _route_every_pair(
            job, split.records, HashPartitioner(job.num_reducers)
        )
        # Entries in the order the reference inserts them, not just equal.
        assert [list(p.entries.items()) for p in outputs] == [
            list(p.entries.items()) for p in expected
        ]
        assert [p.uid for p in outputs] == [p.uid for p in expected]
        emitted = [key for p in outputs for key in p.entries]
        assert len(counting.asked) == len(emitted)
        assert set(counting.asked) == set(emitted)
        pairs = sum(len(list(job.map_fn(record))) for record in split.records)
        assert pairs > len(emitted)  # some key repeated: the memo was used


def _keys_job():
    """Every element of a record is a key, counted."""
    return MapReduceJob(
        name="keys",
        map_fn=lambda record: [(key, 1) for key in record],
        combiner=SumCombiner(),
        num_reducers=5,
    )


@pytest.mark.parametrize(
    "equal_keys", [(1, 1.0, True), (True, 1.0, 1), (0.0, -0.0), (-0.0, 0.0)]
)
def test_keys_equal_as_dict_keys_are_one_key_to_a_map_task(equal_keys):
    """They encode differently, so the partitioner would scatter them, but
    every dict downstream holds them as one key: a task routes them with
    the first of them it saw (DESIGN, "A map task routes a key once")."""
    partitioner = HashPartitioner(5)
    assert len({partitioner.partition(key) for key in equal_keys}) > 1
    outputs = run_map_task(_keys_job(), [equal_keys], partitioner)
    first = equal_keys[0]
    for reducer, partition in enumerate(outputs):
        if reducer == partitioner.partition(first):
            assert list(partition.entries.items()) == [(first, len(equal_keys))]
            assert type(next(iter(partition.entries))) is type(first)
        else:
            assert not partition


def test_distinct_nans_stay_distinct_keys_on_one_reducer():
    one, other = float("nan"), float("nan")
    partitioner = HashPartitioner(5)
    outputs = run_map_task(_keys_job(), [(one, other, one)], partitioner)
    entries = outputs[partitioner.partition(one)].entries
    assert [(key is one, count) for key, count in entries.items()] == [
        (True, 2),
        (False, 1),
    ]
    assert sum(map(len, outputs)) == 2


def test_a_split_at_a_time_map_routes_orders_and_charges_as_the_loop_does():
    loop_job = _keys_job()
    split_job = dataclasses.replace(
        loop_job,
        map_split_fn=lambda records: [loop_job.map_fn(r) for r in records],
    )
    records = [(1, 1.0, True), (), (0.0, -0.0, "a"), ("a", True, "b", 2)]
    seen = []
    for job in (split_job, loop_job):
        meter = WorkMeter()
        outputs = run_map_task(job, records, HashPartitioner(5), meter, "t")
        seen.append(
            (
                [[(k, type(k), v) for k, v in p.entries.items()] for p in outputs],
                [p.uid for p in outputs],
                dict(meter.by_phase),
                [s.name for s in meter.telemetry.iter_spans()],
            )
        )
    assert seen[0] == seen[1]
    assert seen[0][2] == {Phase.MAP: 4.0, Phase.SHUFFLE: 10 * 0.05}


def test_an_unhashable_key_is_a_type_error():
    with pytest.raises(TypeError, match="unhashable"):
        run_map_task(_keys_job(), [([1, 2],)], HashPartitioner(5))


def test_incremental_and_batch_agree_over_keys_that_are_equal_but_encode_apart():
    nan = float("nan")
    records = [
        [(1, 1.0, True), (0.0, -0.0, "a")],
        [(True, 1, "a"), (nan, nan)],
        [(-0.0, 0.0), (1.0, "b", 1)],
        [(1.0, True), (float("nan"), nan, 0.0)],
        [("a", 1, -0.0)],
        [(True, "b"), (0.0, 1.0)],
    ]
    splits = [
        Split.from_records(lines, label=f"s{index}")
        for index, lines in enumerate(records)
    ]
    job = _keys_job()
    slider = Slider(job)
    result = slider.initial_run(splits[:3])
    for arriving in splits[3:]:
        result = slider.advance([arriving], 1)
    expected = BatchRuntime(job).run(splits[3:]).outputs
    assert list(slider.window) == splits[3:]
    assert result.outputs == expected
    slider.verify_outputs()


# -- job validation ---------------------------------------------------------------


def test_job_requires_positive_reducers():
    with pytest.raises(ValueError):
        MapReduceJob(
            name="bad",
            map_fn=lambda r: [],
            combiner=SumCombiner(),
            num_reducers=0,
        )


def test_job_requires_associative_combiner():
    class Broken(SumCombiner):
        associative = False

    with pytest.raises(ValueError):
        MapReduceJob(name="bad", map_fn=lambda r: [], combiner=Broken())


def test_with_reducers_copies_job():
    job = dataclasses.replace(
        word_job(),
        reduce_fn=lambda key, value: -value,
        costs=CostModel(map_cost_per_record=7.0),
        map_split_fn=lambda records: [[(r, 1)] for r in records],
    )
    wider = job.with_reducers(8)
    assert wider.num_reducers == 8
    assert job.num_reducers == 2
    for field in dataclasses.fields(job):  # a hand copy drops the next one
        if field.name != "num_reducers":
            assert getattr(wider, field.name) is getattr(job, field.name), field.name
