"""Unit tests for the recompute-from-scratch baseline runner."""

import pytest

from repro.cluster.machine import Cluster, ClusterConfig
from repro.common.errors import WindowError
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import make_splits
from repro.slider.baseline import VanillaRunner
from repro.slider.window import WindowMode


def word_job():
    return MapReduceJob(
        name="wc",
        map_fn=lambda line: [(w, 1) for w in line.split()],
        combiner=SumCombiner(),
        num_reducers=2,
    )


def test_lifecycle_validation():
    runner = VanillaRunner(word_job())
    with pytest.raises(WindowError):
        runner.advance([], 0)
    runner.initial_run(make_splits(["a"], 1))
    with pytest.raises(WindowError):
        runner.initial_run(make_splits(["a"], 1))


def test_mode_validation_enforced():
    runner = VanillaRunner(word_job(), mode=WindowMode.APPEND)
    runner.initial_run(make_splits(["a", "b"], 1))
    with pytest.raises(WindowError):
        runner.advance(make_splits(["c"], 1), removed=1)


def test_every_run_costs_the_full_window():
    runner = VanillaRunner(word_job())
    splits = make_splits(["a b"] * 20, 1)
    initial = runner.initial_run(splits[:10])
    later = runner.advance(splits[10:12], removed=2)
    # Same window size -> roughly the same work; no reuse whatsoever.
    assert later.report.work == pytest.approx(initial.report.work, rel=0.2)
    assert later.new_map_tasks == 10


def test_background_preprocess_is_noop():
    runner = VanillaRunner(word_job())
    assert runner.background_preprocess() == 0.0


def test_cluster_time_differs_from_work():
    cluster = Cluster(ClusterConfig(num_machines=4, straggler_fraction=0.0))
    runner = VanillaRunner(word_job(), cluster=cluster)
    result = runner.initial_run(make_splits(["a b c"] * 12, 1))
    assert 0 < result.report.time < result.report.work


def test_a_runner_charges_its_caller_s_telemetry():
    from repro.telemetry import Telemetry

    telemetry = Telemetry(label="vanilla")
    runner = VanillaRunner(word_job(), telemetry=telemetry)
    runner.initial_run(make_splits(["a b"] * 4, 1))
    assert runner.telemetry is telemetry and telemetry.root.children
