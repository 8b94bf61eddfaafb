"""Tests for the output-delta reporting (changed/removed keys)."""

from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import Split
from repro.slider.system import Slider
from repro.slider.window import WindowMode


def count_job():
    return MapReduceJob(
        name="counts",
        map_fn=lambda record: [(record, 1)],
        combiner=SumCombiner(),
        num_reducers=2,
    )


def split_of(records, label):
    return Split.from_records(records, label=label)


def test_initial_run_reports_all_keys_changed():
    slider = Slider(count_job(), WindowMode.VARIABLE)
    result = slider.initial_run([split_of(["a", "b"], "s0")])
    assert result.changed_keys == {"a", "b"}
    assert result.removed_keys == frozenset()


def test_append_reports_only_affected_keys():
    slider = Slider(count_job(), WindowMode.VARIABLE)
    slider.initial_run([split_of(["a", "b"], "s0")])
    result = slider.advance([split_of(["b", "c"], "s1")], 0)
    # 'a' is untouched, 'b' changed count, 'c' is new.
    assert result.changed_keys == {"b", "c"}
    assert result.removed_keys == frozenset()
    assert result.outputs == {"a": 1, "b": 2, "c": 1}


def test_removal_reports_disappearing_keys():
    slider = Slider(count_job(), WindowMode.VARIABLE)
    slider.initial_run([split_of(["a"], "s0"), split_of(["b"], "s1")])
    result = slider.advance([], removed=1)  # drops the 'a' split
    assert result.removed_keys == {"a"}
    assert "a" not in result.outputs
    assert result.changed_keys == frozenset()


def test_no_change_reports_empty_delta():
    slider = Slider(count_job(), WindowMode.VARIABLE)
    slider.initial_run([split_of(["a", "b"], "s0")])
    result = slider.advance([], 0)
    assert result.changed_keys == frozenset()
    assert result.removed_keys == frozenset()


def test_delta_composes_to_full_output():
    """Applying the deltas to the previous output reproduces the new one."""
    slider = Slider(count_job(), WindowMode.VARIABLE)
    previous = slider.initial_run(
        [split_of(["a", "b"], "s0"), split_of(["b", "c"], "s1")]
    ).outputs
    result = slider.advance([split_of(["c", "d"], "s2")], removed=1)

    patched = dict(previous)
    for key in result.removed_keys:
        patched.pop(key, None)
    for key in result.changed_keys:
        patched[key] = result.outputs[key]
    assert patched == result.outputs


def test_full_eviction_reports_everything_removed():
    """Sliding every split out empties the output and reports all keys as
    removed, none as changed."""
    slider = Slider(count_job(), WindowMode.VARIABLE)
    slider.initial_run([split_of(["a", "b"], "s0"), split_of(["c"], "s1")])
    result = slider.advance([], removed=2)
    assert result.outputs == {}
    assert result.removed_keys == {"a", "b", "c"}
    assert result.changed_keys == frozenset()


def test_full_eviction_then_refill():
    """A window emptied and refilled reports the new keys as changed."""
    slider = Slider(count_job(), WindowMode.VARIABLE)
    slider.initial_run([split_of(["a"], "s0")])
    slider.advance([], removed=1)
    result = slider.advance([split_of(["b", "b"], "s1")], removed=0)
    assert result.outputs == {"b": 2}
    assert result.changed_keys == {"b"}
    assert result.removed_keys == frozenset()


def test_collect_garbage_shrinks_space():
    """Memoized state for evicted splits is dropped by the collection an
    advance ends with, and space() reflects the shrink."""
    slider = Slider(count_job(), WindowMode.VARIABLE)
    slider.initial_run(
        [split_of([f"k{i}", f"k{i}x"], f"s{i}") for i in range(6)]
    )
    before = slider.space()
    # Slide most of the window out: the advance collects what left.
    slider.advance([split_of(["fresh"], "s9")], removed=5)
    after = slider.space()
    assert len(slider.map_memo) == 2
    assert slider.collect_garbage() == 0
    assert after < before
    # Outputs are untouched by garbage collection.
    assert slider.verify_outputs() > 0


def test_auto_gc_keeps_space_bounded():
    """An engine collects after every advance, so sliding a fixed-size
    window does not accumulate memoized state for long-gone splits."""
    slider = Slider(count_job(), WindowMode.VARIABLE)
    slider.initial_run([split_of([f"w{i}"], f"s{i}") for i in range(4)])
    sizes = []
    for step in range(8):
        result = slider.advance(
            [split_of([f"w{4 + step}"], f"s{4 + step}")], removed=1
        )
        sizes.append(result.report.space)
    # The window stays 4 splits wide; space must plateau, not grow
    # linearly with the number of runs.
    assert max(sizes[4:]) <= max(sizes[:4]) + 1e-9
