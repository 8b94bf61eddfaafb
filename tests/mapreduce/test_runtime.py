"""Unit tests for the vanilla batch runtime."""

from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import CostModel, MapReduceJob
from repro.mapreduce.runtime import BatchRuntime
from repro.mapreduce.types import make_splits
from repro.metrics import Phase


def word_job(**cost_kwargs):
    return MapReduceJob(
        name="wc",
        map_fn=lambda line: [(w, 1) for w in line.split()],
        combiner=SumCombiner(),
        num_reducers=3,
        costs=CostModel(**cost_kwargs),
    )


def test_outputs_are_correct():
    runtime = BatchRuntime(word_job())
    splits = make_splits(["a b", "b c", "a a"], split_size=1)
    result = runtime.run(splits)
    assert result.outputs == {"a": 3, "b": 2, "c": 1}


def test_empty_input():
    result = BatchRuntime(word_job()).run([])
    assert result.outputs == {}
    # Reduce tasks still exist (empty partitions), map tasks do not.
    kinds = [t.kind for t in result.tasks]
    assert kinds.count("map") == 0
    assert kinds.count("reduce") == 3


def test_task_records_cover_all_tasks():
    splits = make_splits(["a"] * 5, split_size=1)
    result = BatchRuntime(word_job()).run(splits)
    kinds = [t.kind for t in result.tasks]
    assert kinds.count("map") == 5
    assert kinds.count("reduce") == 3
    assert all(t.cost >= 0 for t in result.tasks)


def test_work_scales_linearly_with_window():
    runtime = BatchRuntime(word_job())
    small = runtime.run(make_splits(["a b c"] * 10, 1)).work
    runtime2 = BatchRuntime(word_job())
    large = runtime2.run(make_splits(["a b c"] * 40, 1)).work
    assert large > 3.0 * small


def test_reduce_fn_is_applied():
    job = MapReduceJob(
        name="doubling",
        map_fn=lambda x: [(x % 2, 1)],
        combiner=SumCombiner(),
        reduce_fn=lambda key, value: value * 10,
        num_reducers=2,
    )
    result = BatchRuntime(job).run(make_splits([0, 1, 2, 3], 2))
    assert result.outputs == {0: 20, 1: 20}


def test_map_cost_model_respected():
    cheap = BatchRuntime(word_job(map_cost_per_record=1.0)).run(
        make_splits(["a"] * 10, 1)
    )
    pricey = BatchRuntime(word_job(map_cost_per_record=50.0)).run(
        make_splits(["a"] * 10, 1)
    )
    map_work = [r.telemetry.by_phase[Phase.MAP] for r in (pricey, cheap)]
    assert map_work[0] == 50 * map_work[1]
