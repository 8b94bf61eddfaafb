"""Edge-case tests for the Slider engine."""

import pytest

from repro.core.rotating import RotatingTree
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import BatchRuntime
from repro.mapreduce.types import Split, make_splits
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode


def word_job(num_reducers=3):
    return MapReduceJob(
        name="wc",
        map_fn=lambda line: [(w, 1) for w in line.split()],
        combiner=SumCombiner(),
        num_reducers=num_reducers,
    )


CORPUS = [f"w{i % 5} w{i % 11} common" for i in range(30)]


def test_single_reducer():
    job = word_job(num_reducers=1)
    splits = make_splits(CORPUS, 2)
    slider = Slider(job, WindowMode.VARIABLE)
    slider.initial_run(splits[:10])
    result = slider.advance(splits[10:12], 2)
    expected = BatchRuntime(job).run(splits[2:12]).outputs
    assert result.outputs == expected


def test_many_reducers_some_empty():
    """More reducers than keys: empty partitions flow through the trees."""
    job = MapReduceJob(
        name="two-keys",
        map_fn=lambda x: [(x % 2, 1)],
        combiner=SumCombiner(),
        num_reducers=8,
    )
    splits = make_splits(list(range(20)), 2)
    slider = Slider(job, WindowMode.VARIABLE)
    slider.initial_run(splits[:8])
    result = slider.advance(splits[8:10], 1)
    expected = BatchRuntime(job).run(splits[1:10]).outputs
    assert result.outputs == expected


def test_zero_delta_advance_is_cheap_and_correct():
    job = word_job()
    splits = make_splits(CORPUS, 2)
    slider = Slider(job, WindowMode.VARIABLE)
    initial = slider.initial_run(splits[:10])
    unchanged = slider.advance([], 0)
    assert unchanged.outputs == initial.outputs
    assert unchanged.report.work < initial.report.work / 10


def test_fixed_mode_zero_delta():
    job = word_job()
    splits = make_splits(CORPUS, 2)
    slider = Slider(job, WindowMode.FIXED)
    initial = slider.initial_run(splits[:10])
    assert slider.advance([], 0).outputs == initial.outputs


def test_map_fn_emitting_nothing_for_some_records():
    job = MapReduceJob(
        name="sparse",
        map_fn=lambda x: [(x, 1)] if x % 3 == 0 else [],
        combiner=SumCombiner(),
        num_reducers=2,
    )
    splits = make_splits(list(range(30)), 3)
    slider = Slider(job, WindowMode.VARIABLE)
    slider.initial_run(splits[:8])
    result = slider.advance(splits[8:10], 2)
    expected = BatchRuntime(job).run(splits[2:10]).outputs
    assert result.outputs == expected


def test_reduce_memo_tracks_value_reversions():
    """A key whose count changes and then reverts must reduce correctly."""
    calls = []

    def noisy_reduce(key, value):
        calls.append(key)
        return value

    job = MapReduceJob(
        name="revert",
        map_fn=lambda x: [("k", x)],
        combiner=SumCombiner(),
        reduce_fn=noisy_reduce,
        num_reducers=1,
    )
    a = Split.from_records([5], label="a")
    b = Split.from_records([3], label="b")
    c = Split.from_records([3], label="c")  # same value, different split

    slider = Slider(job, WindowMode.VARIABLE)
    assert slider.initial_run([a, b]).outputs == {"k": 8}
    calls.clear()
    # Append c: the sum changes -> reduce re-runs for the key.
    result = slider.advance([c], removed=0)
    assert result.outputs == {"k": 11}
    assert calls == ["k"]
    # Drop a: the sum changes again -> reduce re-runs again.
    calls.clear()
    result = slider.advance([], removed=1)
    assert result.outputs == {"k": 6}
    assert calls == ["k"]
    # No change at all: the memoized reduce output is reused.
    calls.clear()
    result = slider.advance([], removed=0)
    assert result.outputs == {"k": 6}
    assert calls == []


def test_a_split_back_in_the_advance_it_left_hits_map_memo():
    job = word_job()
    splits = make_splits(CORPUS, 2)
    slider = Slider(job, WindowMode.VARIABLE)
    slider.initial_run(splits[:6])
    result = slider.advance(splits[:3], removed=3)  # 0-2 leave and come back
    assert result.new_map_tasks == 0
    assert result.reused_map_tasks == 3
    # Back in the window, their rows survive the advance's collection.
    assert set(slider.map_memo) == {split.uid for split in splits[:6]}


def test_config_mode_mismatch_is_reconciled():
    config = SliderConfig(mode=WindowMode.APPEND)
    slider = Slider(word_job(), WindowMode.FIXED, config=config)
    assert slider.config.mode is WindowMode.FIXED
    assert slider.config.tree_variant() == "rotating"


def test_a_mode_set_only_in_the_config_is_the_engines():
    slider = Slider(word_job(), config=SliderConfig(mode=WindowMode.FIXED))
    assert slider.mode is WindowMode.FIXED
    assert all(isinstance(tree, RotatingTree) for tree in slider.trees)
    assert Slider(word_job()).mode is WindowMode.VARIABLE


@pytest.mark.parametrize(
    "fields,named",
    [
        ({"mode": "variable"}, "WindowMode.VARIABLE"),
        ({"mode": None}, "WindowMode.FIXED"),
        ({"tree": "bogus"}, "'rotating'"),
        ({"tree": "Folding"}, "'folding'"),
    ],
)
def test_config_rejects_an_unknown_mode_or_tree_when_built(fields, named):
    with pytest.raises(ValueError, match="choose from") as raised:
        SliderConfig(**fields)
    assert named in str(raised.value)


def test_an_engine_given_an_unknown_mode_rejects_it():
    with pytest.raises(ValueError, match="unknown window mode"):
        Slider(word_job(), "variable")


def test_unknown_tree_variant_rejected():
    with pytest.raises(ValueError):
        SliderConfig(mode=WindowMode.VARIABLE, tree="btree")


def test_background_preprocess_noop_for_variable_mode():
    job = word_job()
    splits = make_splits(CORPUS, 2)
    slider = Slider(job, WindowMode.VARIABLE)
    slider.initial_run(splits[:6])
    assert slider.background_preprocess() == 0.0


def test_window_emptied_and_refilled():
    job = word_job()
    splits = make_splits(CORPUS, 2)
    slider = Slider(job, WindowMode.VARIABLE)
    slider.initial_run(splits[:4])
    empty = slider.advance([], removed=4)
    assert empty.outputs == {}
    refilled = slider.advance(splits[4:8], 0)
    expected = BatchRuntime(job).run(splits[4:8]).outputs
    assert refilled.outputs == expected


class _NanPricedSum(SumCombiner):
    """Prices merges at NaN once ``armed``."""

    armed = False

    def merge_cost(self, key, values):
        return float("nan") if self.armed else super().merge_cost(key, values)


def test_an_advance_whose_merge_cost_is_nan_raises():
    combiner = _NanPricedSum()
    job = MapReduceJob(
        name="nan-cost",
        map_fn=lambda line: [(w, 1) for w in line.split()],
        combiner=combiner,
        num_reducers=2,
    )
    splits = make_splits(CORPUS, 2)
    slider = Slider(job, WindowMode.VARIABLE)
    slider.initial_run(splits[:10])
    combiner.armed = True
    with pytest.raises(ValueError, match="work must be non-negative, got nan"):
        slider.advance(splits[10:12], 2)
