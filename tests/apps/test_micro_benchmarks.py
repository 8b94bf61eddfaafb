"""Unit tests for the five micro-benchmark applications."""

import pytest

from repro.apps.histogram import histogram_job, make_text_splits
from repro.apps.kmeans import kmeans_job, make_point_splits
from repro.apps.knn import knn_job
from repro.apps.matrix import matrix_job
from repro.apps.registry import APP_REGISTRY, micro_benchmark_apps
from repro.apps.substr import substr_job
from repro.mapreduce.runtime import BatchRuntime
from repro.metrics import Phase
from repro.slider.system import Slider
from repro.slider.window import WindowMode


def test_histogram_counts_word_shapes():
    job = histogram_job()
    splits = make_text_splits(["aa bb ccc", "dd e"], lines_per_split=1)
    outputs = BatchRuntime(job).run(splits).outputs
    assert outputs["len:2"] == 3  # aa, bb, dd
    assert outputs["len:3"] == 1
    assert outputs["len:1"] == 1
    assert outputs["first:a"] == 1


def test_matrix_counts_cooccurrences():
    job = matrix_job()
    splits = make_text_splits(["a b c"], lines_per_split=1)
    outputs = BatchRuntime(job).run(splits).outputs
    assert outputs[("a", "b")] == 1
    assert outputs[("b", "a")] == 1
    assert outputs[("a", "c")] == 1  # within context window of 2


def test_substr_counts_ngrams():
    job = substr_job()
    splits = make_text_splits(["abcd abcd"], lines_per_split=1)
    outputs = BatchRuntime(job).run(splits).outputs
    assert outputs["abc"] == 2
    assert outputs["bcd"] == 2


def test_substr_short_words_emit_whole_word():
    job = substr_job()
    splits = make_text_splits(["ab"], lines_per_split=1)
    outputs = BatchRuntime(job).run(splits).outputs
    assert outputs["ab"] == 1


def test_kmeans_assigns_points_to_nearest_centroid():
    centroids = [(0.0, 0.0), (1.0, 1.0)]
    job = kmeans_job(centroids, dimensions=2)
    points = [(0.1, 0.1), (0.2, 0.0), (0.9, 0.95)]
    splits = make_point_splits(points, points_per_split=3)
    outputs = BatchRuntime(job).run(splits).outputs
    # New centroid 0 is the mean of the two near-origin points.
    assert outputs[0] == pytest.approx((0.15, 0.05))
    assert outputs[1] == pytest.approx((0.9, 0.95))


def test_kmeans_requires_centroids():
    with pytest.raises(ValueError):
        kmeans_job([])


def test_knn_finds_nearest_points():
    queries = [(0.0, 0.0)]
    job = knn_job(queries, k=2, dimensions=2)
    points = [(0.1, 0.0), (0.5, 0.5), (0.05, 0.05), (0.9, 0.9)]
    splits = make_point_splits(points, points_per_split=2)
    outputs = BatchRuntime(job).run(splits).outputs
    assert set(outputs[0]) == {(0.05, 0.05), (0.1, 0.0)}


def test_knn_requires_queries():
    with pytest.raises(ValueError):
        knn_job([])


@pytest.mark.parametrize("spec", micro_benchmark_apps(), ids=lambda s: s.name)
def test_registry_apps_run_incrementally(spec):
    """Every registry app runs under Slider and matches batch recompute."""
    job = spec.make_job()
    initial = spec.make_splits(8, 7, 0)
    added = spec.make_splits(2, 7, 8)
    assert len({s.uid for s in initial + added}) == 10, "splits must be unique"

    slider = Slider(job, WindowMode.VARIABLE)
    slider.initial_run(initial)
    result = slider.advance(added, removed=2)

    window = initial[2:] + added
    expected = BatchRuntime(job).run(window).outputs
    assert_outputs_close(result.outputs, expected)


def assert_outputs_close(actual, expected):
    """Equality up to float rounding: tree combination order may differ
    from the flat batch order, so float sums can differ in the last ulps."""
    assert set(actual) == set(expected)
    for key, value in expected.items():
        got = actual[key]
        if isinstance(value, tuple) and value and isinstance(value[0], float):
            assert got == pytest.approx(value)
        else:
            assert got == value


def test_registry_split_determinism():
    spec = APP_REGISTRY["hct"]
    a = spec.make_splits(3, 5, 0)
    b = spec.make_splits(3, 5, 0)
    assert [s.uid for s in a] == [s.uid for s in b]


def test_compute_intensive_flags():
    assert APP_REGISTRY["kmeans"].compute_intensive
    assert APP_REGISTRY["knn"].compute_intensive
    assert not APP_REGISTRY["hct"].compute_intensive


def test_kmeans_map_dominates_work():
    """The Figure 9 property: compute-intensive apps are map-dominated."""
    spec = APP_REGISTRY["kmeans"]
    job = spec.make_job()
    result = BatchRuntime(job).run(spec.make_splits(4, 3, 0))
    breakdown = result.telemetry.by_phase
    assert breakdown[Phase.MAP] > 0.9 * result.work


def test_hct_reduce_side_is_substantial():
    """Data-intensive apps split work between phases (Figure 9)."""
    spec = APP_REGISTRY["hct"]
    job = spec.make_job()
    result = BatchRuntime(job).run(spec.make_splits(6, 3, 0))
    breakdown = result.telemetry.by_phase
    assert breakdown[Phase.MAP] < 0.7 * result.work
