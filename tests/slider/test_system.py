"""Integration tests: the Slider engine end to end on a word-count job."""

import gc
import weakref

import pytest

from repro.cluster.machine import Cluster, ClusterConfig
from repro.common.errors import ReproError, WindowError
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import make_splits
from repro.slider.baseline import VanillaRunner
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode


def word_count_job(num_reducers=3) -> MapReduceJob:
    return MapReduceJob(
        name="wordcount",
        map_fn=lambda line: [(word, 1) for word in line.split()],
        combiner=SumCombiner(),
        num_reducers=num_reducers,
    )


def lines(*texts):
    return list(texts)


def expected_counts(all_lines):
    counts = {}
    for line in all_lines:
        for word in line.split():
            counts[word] = counts.get(word, 0) + 1
    return counts


CORPUS = [
    "the quick brown fox",
    "jumps over the lazy dog",
    "the dog barks",
    "a quick brown dog",
    "foxes and dogs play",
    "the fox sleeps",
    "dogs bark at the fox",
    "quick foxes jump",
]


@pytest.mark.parametrize("mode", list(WindowMode))
def test_initial_run_matches_vanilla(mode):
    job = word_count_job()
    splits = make_splits(CORPUS[:4], split_size=1)
    slider = Slider(job, mode=mode)
    vanilla = VanillaRunner(job, mode=mode)
    assert (
        slider.initial_run(splits).outputs == vanilla.initial_run(splits).outputs
    )


@pytest.mark.parametrize("mode", list(WindowMode))
def test_advance_matches_vanilla(mode):
    job = word_count_job()
    splits = make_splits(CORPUS, split_size=1)
    slider = Slider(job, mode=mode)
    vanilla = VanillaRunner(job, mode=mode)
    slider.initial_run(splits[:4])
    vanilla.initial_run(splits[:4])

    removed = {WindowMode.APPEND: 0, WindowMode.FIXED: 2, WindowMode.VARIABLE: 1}[
        mode
    ]
    added = splits[4:6]
    assert (
        slider.advance(added, removed).outputs
        == vanilla.advance(added, removed).outputs
    )


def test_variable_mode_multiple_slides_stay_correct():
    job = word_count_job()
    splits = make_splits(CORPUS, split_size=1)
    slider = Slider(job, mode=WindowMode.VARIABLE)
    slider.initial_run(splits[:3])
    window = list(splits[:3])

    schedule = [(splits[3:5], 1), (splits[5:6], 2), (splits[6:8], 0)]
    for added, removed in schedule:
        window = window[removed:] + list(added)
        result = slider.advance(added, removed)
        expected = expected_counts(
            [line for split in window for line in split.records]
        )
        assert result.outputs == expected


def test_incremental_run_cheaper_than_vanilla():
    job = word_count_job()
    splits = make_splits(CORPUS * 32, split_size=1)  # 256 splits
    slider = Slider(job, mode=WindowMode.VARIABLE)
    vanilla = VanillaRunner(job)
    slider.initial_run(splits[:250])
    vanilla.initial_run(splits[:250])

    s = slider.advance(splits[250:252], 2)
    v = vanilla.advance(splits[250:252], 2)
    assert s.outputs == v.outputs
    assert s.report.work < v.report.work / 2
    # Map-side savings are near total: 2 new tasks vs 250.
    assert s.report.breakdown["map"] < v.report.breakdown["map"] / 50


def test_map_tasks_reused_across_runs():
    job = word_count_job()
    splits = make_splits(CORPUS, split_size=1)
    slider = Slider(job, mode=WindowMode.VARIABLE)
    slider.initial_run(splits[:4])
    result = slider.advance(splits[4:6], 1)
    assert result.new_map_tasks == 2
    # Re-adding an already-seen split reuses its map output.
    result = slider.advance([splits[0]], 1)
    # splits[0] fell out of the window and was GC'd, so it re-runs.
    assert result.new_map_tasks in (0, 1)


def test_fixed_mode_rejects_unbalanced_slide():
    job = word_count_job()
    splits = make_splits(CORPUS, split_size=1)
    slider = Slider(job, mode=WindowMode.FIXED)
    slider.initial_run(splits[:4])
    with pytest.raises(WindowError):
        slider.advance(splits[4:6], 1)


def test_append_mode_rejects_removal():
    job = word_count_job()
    splits = make_splits(CORPUS, split_size=1)
    slider = Slider(job, mode=WindowMode.APPEND)
    slider.initial_run(splits[:4])
    with pytest.raises(WindowError):
        slider.advance(splits[4:5], 1)


def test_advance_before_initial_rejected():
    slider = Slider(word_count_job())
    with pytest.raises(WindowError):
        slider.advance([], 0)


def test_double_initial_rejected():
    job = word_count_job()
    splits = make_splits(CORPUS, split_size=1)
    slider = Slider(job)
    slider.initial_run(splits[:2])
    with pytest.raises(WindowError):
        slider.initial_run(splits[:2])


def test_strawman_variant_correct_but_slower_on_slides():
    job = word_count_job()
    splits = make_splits(CORPUS * 32, split_size=1)
    config_strawman = SliderConfig(mode=WindowMode.VARIABLE, tree="strawman")
    strawman = Slider(job, WindowMode.VARIABLE, config=config_strawman)
    folding = Slider(job, WindowMode.VARIABLE)
    strawman.initial_run(splits[:250])
    folding.initial_run(splits[:250])

    s = strawman.advance(splits[250:252], 2)
    f = folding.advance(splits[250:252], 2)
    assert s.outputs == f.outputs
    assert f.report.work < s.report.work


def test_randomized_variant_correct():
    job = word_count_job()
    splits = make_splits(CORPUS, split_size=1)
    config = SliderConfig(mode=WindowMode.VARIABLE, tree="randomized", seed=11)
    slider = Slider(job, WindowMode.VARIABLE, config=config)
    vanilla = VanillaRunner(job)
    slider.initial_run(splits[:5])
    vanilla.initial_run(splits[:5])
    assert (
        slider.advance(splits[5:7], 3).outputs
        == vanilla.advance(splits[5:7], 3).outputs
    )


def test_cluster_time_simulation_produces_finite_time():
    job = word_count_job()
    splits = make_splits(CORPUS * 4, split_size=1)
    cluster = Cluster(ClusterConfig(num_machines=8, straggler_fraction=0.0))
    slider = Slider(job, WindowMode.VARIABLE, cluster=cluster)
    result = slider.initial_run(splits[:24])
    assert 0 < result.report.time < result.report.work
    result = slider.advance(splits[24:26], 2)
    assert result.report.time > 0


def test_background_preprocess_charges_background_phase():
    job = word_count_job()
    splits = make_splits(CORPUS, split_size=1)
    config = SliderConfig(mode=WindowMode.FIXED, split_mode=True)
    slider = Slider(job, WindowMode.FIXED, config=config)
    slider.initial_run(splits[:4])
    charged = slider.background_preprocess()
    assert charged > 0
    result = slider.advance(splits[4:6], 2)
    window_lines = [
        line for split in splits[2:6] for line in split.records
    ]
    assert result.outputs == expected_counts(window_lines)


def test_gc_drops_out_of_window_map_outputs():
    job = word_count_job()
    splits = make_splits(CORPUS, split_size=1)
    slider = Slider(job, WindowMode.VARIABLE)
    slider.initial_run(splits[:4])
    slider.advance(splits[4:6], 4)
    live = {split.uid for split in slider.window}
    assert set(slider.map_memo) == live


def test_space_accounting_positive_after_runs():
    job = word_count_job()
    splits = make_splits(CORPUS, split_size=1)
    slider = Slider(job, WindowMode.VARIABLE)
    slider.initial_run(splits[:4])
    assert slider.space() > 0


def test_current_outputs_matches_last_run():
    job = word_count_job()
    splits = make_splits(CORPUS, split_size=1)
    slider = Slider(job, WindowMode.VARIABLE)
    result = slider.initial_run(splits[:4])
    assert slider.current_outputs() == result.outputs


def test_verify_outputs_holds_a_float_job_to_its_declared_tolerance():
    """K-Means sums float vectors, so a tree's bracketing of the window
    differs from the batch run's in the last bits: its combiner says so
    (``exact = False``), and the invariant holds over a whole stream."""
    from repro.apps.registry import APP_REGISTRY
    from repro.mapreduce.runtime import BatchRuntime

    spec = APP_REGISTRY["kmeans"]
    assert not spec.make_job().combiner.exact
    splits = spec.make_splits(48, 7, 0)
    slider = Slider(spec.make_job(), WindowMode.VARIABLE)
    slider.initial_run(splits[:8])
    for split in splits[8:]:
        result = slider.advance([split], 1)
        assert slider.verify_outputs() == len(result.outputs)
    expected = BatchRuntime(slider.job).run(list(slider.window)).outputs
    assert result.outputs != expected  # == would have raised, as it used to


@pytest.mark.parametrize("app", ["kmeans", "hct"])
def test_verify_outputs_raises_on_a_corrupted_root(app):
    """Whatever the comparison, exact (hct) or to a tolerance (kmeans)."""
    from repro.apps.registry import APP_REGISTRY
    from repro.core.partition import Partition

    spec = APP_REGISTRY[app]
    slider = Slider(spec.make_job(), WindowMode.FIXED)
    slider.initial_run(spec.make_splits(6, 7, 0))
    slider.verify_outputs()
    tree = next(tree for tree in slider.trees if tree.root())
    key, value = next(iter(tree.root().items()))
    if app == "kmeans":  # one more point, a thousandth of a coordinate off
        count, vector = value
        wrong = (count, (vector[0] * 1.001,) + vector[1:])
    else:
        wrong = value + 1
    tree._root = Partition({**tree.root().entries, key: wrong})
    with pytest.raises(ReproError, match="diverged from the batch run"):
        slider.verify_outputs()


@pytest.mark.parametrize("mode", list(WindowMode))
def test_closed_engine_is_freed_without_the_cycle_collector(mode, tmp_path):
    """``close()`` drops the collaborators that point back at the engine,
    so letting go of a closed engine frees it (and its copy of the
    window) by reference counting, with no collection in between."""
    job = word_count_job()
    splits = make_splits(CORPUS, split_size=1)
    gc.collect()
    gc.disable()
    try:
        slider = Slider(job, mode=mode)
        result = slider.initial_run(splits[:4])
        if mode is not WindowMode.APPEND:
            result = slider.advance(splits[4:5], 1)
        slider.checkpoint(tmp_path / "ckpt")
        engine_ref = weakref.ref(slider)
        window_ref = weakref.ref(slider.window)
        slider.close()
        slider.close()
        with pytest.raises(ReproError, match="closed"):
            slider.advance(splits[5:6], 1)
        with pytest.raises(ReproError, match="closed"):
            slider.initial_run(splits[:4])
        with pytest.raises(ReproError, match="closed"):
            slider.checkpoint(tmp_path / "again")
        assert len(slider.window) == 0 and not slider.map_memo and not slider.trees
        del slider
        assert engine_ref() is None
        assert window_ref() is None
        assert result.outputs  # what was handed out stays whole
    finally:
        gc.enable()
