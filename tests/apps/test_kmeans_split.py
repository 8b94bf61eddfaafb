"""K-Means' split-at-a-time Map is a spelling of ``map_fn``, not a second
definition: ``==`` to the per-record outputs on blocks aimed at the
kernel's certificate, the same partitions, charges and spans through
``run_map_task`` and ``Slider``, the per-record loop whenever a poison
policy is set, and — counted, not timed — no silent slide back into the
scalar fallback."""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import kmeans
from repro.apps.registry import APP_REGISTRY
from repro.core.poison import DeadLetterQueue, PoisonContext, PoisonPolicy
from repro.datagen.points import PointGenerator
from repro.mapreduce.shuffle import HashPartitioner, run_map_task
from repro.metrics import Phase
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from repro.telemetry import Telemetry
from tests.conftest import profile_calls
from tests.oracle.fleet import VARIANTS

SPEC = APP_REGISTRY["kmeans"]


def per_record(job, records):
    return [list(job.map_fn(record)) for record in records]


def outcome(thunk):
    try:
        return thunk()
    except Exception as exc:
        return type(exc)


def stripped(job):
    return dataclasses.replace(job, map_split_fn=None)


# -- the hypothesis twin ------------------------------------------------------

ORDINARY = st.one_of(
    st.floats(-8, 8, allow_nan=False, width=64),
    st.integers(-3, 3).map(float),  # a grid: exact ties without aiming
)
ODD = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e200, -1e200, 1e-170, 5e-324, -0.0]
)
#: How far off a bisecting hyperplane, as a share of the centre distance:
#: on it, inside the certificate's margin, at it, and clear of it.
NUDGES = (0.0, 1e-15, 1e-12, 1e-9, 1e-6)


def vectors(coordinate, width):
    return st.lists(coordinate, min_size=width, max_size=width).map(tuple)


@st.composite
def near_bisector(draw, centroids):
    """A point of the hyperplane between two centres — slid along it, so
    that the two distances are near-equal sums of unequal terms and the
    order of summation decides — or a nudge and up to two ulps off it."""
    a = draw(st.sampled_from(centroids))
    b = draw(st.sampled_from(centroids))
    across = [y - x for x, y in zip(a, b)]
    slide = draw(vectors(ORDINARY, len(a)))
    along = sum(u * v for u, v in zip(slide, across)) / (
        sum(v * v for v in across) or 1.0
    )
    nudge = draw(st.sampled_from(NUDGES)) * draw(st.sampled_from((-1, 1)))
    point = [
        (x + y) / 2 + u + (nudge - along) * v
        for x, y, u, v in zip(a, b, slide, across)
    ]
    axis = draw(st.integers(0, len(point) - 1))
    toward = draw(st.sampled_from((-math.inf, math.inf)))
    for _ in range(draw(st.integers(0, 2))):
        point[axis] = math.nextafter(point[axis], toward)
    return tuple(point)


@st.composite
def blocks(draw):
    width = draw(st.sampled_from((1, 2, 50)))
    centroids = draw(st.lists(vectors(ORDINARY, width), min_size=1, max_size=4))
    if draw(st.booleans()):
        centroids.append(draw(st.sampled_from(centroids)))  # a duplicate
    if draw(st.integers(0, 7)) == 0:
        centroids[0] = centroids[0][:-1] + (draw(ODD),)
    point = st.one_of(
        near_bisector(centroids),
        vectors(ORDINARY, width),
        vectors(st.integers(-3, 3), width),
        vectors(st.one_of(ORDINARY, ODD), width),
        st.sampled_from(centroids),
    )
    points = draw(st.lists(point, max_size=12))
    shape = draw(st.sampled_from(("whole", "whole", "ragged", "long", "short")))
    if shape == "ragged" and points:
        at = draw(st.integers(0, len(points) - 1))
        points[at] = draw(st.sampled_from((points[at][:-1], points[at] + (1.0,))))
    elif shape == "long":
        points = [p + (0.5,) for p in points]
    elif shape == "short":
        points = [p[:-1] for p in points]
    return centroids, tuple(points), draw(st.sampled_from((1, 3, 512)))


@given(blocks())
@settings(max_examples=400, deadline=None)
def test_the_kernel_is_a_spelling_of_map_fn(block):
    centroids, points, rows = block
    job = kmeans.kmeans_job(centroids, dimensions=len(centroids[0]))
    with mock.patch.object(kmeans, "_BLOCK_ROWS", rows):
        got = outcome(lambda: job.map_split_fn(points))
    assert got == outcome(lambda: per_record(job, points))


def test_a_split_larger_than_the_row_block():
    job = SPEC.make_job()
    points = PointGenerator(seed=5, dimensions=50, clusters=8).points(
        2 * kmeans._BLOCK_ROWS + 7
    )
    assert job.map_split_fn(points) == per_record(job, points)


def test_ragged_centroids_are_rejected():
    with pytest.raises(ValueError, match="same length"):
        kmeans.kmeans_job([(0.0, 0.0), (1.0,)])


# -- run_map_task and Slider twins -------------------------------------------


def map_task(job, records, poison=None):
    telemetry = Telemetry(label="twin")
    partitions = run_map_task(
        job, records, HashPartitioner(job.num_reducers), telemetry, "twin", poison
    )
    spans = [(span.name, span.kind) for span in telemetry.iter_spans()]
    return partitions, dict(telemetry.by_phase), spans


def test_run_map_task_twins_on_the_registry_stream():
    job = SPEC.make_job()
    for split in SPEC.make_splits(4, 17, 0):
        with_kernel = map_task(job, split.records)
        without = map_task(stripped(job), split.records)
        # Partition.__eq__ is uid and entries; float == is to the last digit.
        assert with_kernel == without
        assert with_kernel[1][Phase.MAP] == len(split) * job.costs.map_cost_per_record


@pytest.mark.parametrize("variant,mode", VARIANTS)
def test_slider_twins(variant, mode):
    splits = SPEC.make_splits(10, 23, 0)
    removed = 0 if mode is WindowMode.APPEND else 1
    runs = []
    for job in (SPEC.make_job(), stripped(SPEC.make_job())):
        slider = Slider(job, mode, config=SliderConfig(mode=mode, tree=variant))
        results = [slider.initial_run(splits[:6])]
        results += [slider.advance([split], removed) for split in splits[6:]]
        runs.append(
            (
                [(r.outputs, r.report.work, r.report.breakdown) for r in results],
                {p: w.hex() for p, w in slider.telemetry.by_phase.items()},
                [[p.uid for p in slider.map_memo[s.uid]] for s in slider.window],
            )
        )
        slider.close()
    assert runs[0] == runs[1]


# -- robustness ----------------------------------------------------------------


def counting(job):
    """``job`` with a kernel that counts its calls."""
    calls = []

    def kernel(records):
        calls.append(len(records))
        return job.map_split_fn(records)

    return dataclasses.replace(job, map_split_fn=kernel), calls


def test_a_poison_policy_takes_the_per_record_loop():
    records = list(SPEC.make_splits(1, 29, 0)[0].records)
    records[3:3] = [None, ("x",) * 50]  # map_assign raises TypeError on both
    job, calls = counting(SPEC.make_job())
    seen = []
    for twin in (job, stripped(job)):
        queue = DeadLetterQueue(PoisonPolicy(max_retries=2))
        partitions, charged, spans = map_task(twin, records, PoisonContext(queue))
        seen.append((partitions, charged, spans, queue.letters))
    assert seen[0] == seen[1]
    assert calls == []
    assert [(l.unit, l.attempts) for l in seen[0][3]] == [(None, 3), (("x",) * 50, 3)]

    # No policy: the kernel runs, and what it cannot map raises as map_fn does.
    with pytest.raises(TypeError) as of_kernel:
        map_task(job, records)
    with pytest.raises(TypeError) as of_loop:
        map_task(stripped(job), records)
    assert calls == [len(records)]
    assert str(of_kernel.value) == str(of_loop.value)


# -- the counting gate -----------------------------------------------------------


def profile_events(thunk):
    """``call`` / ``c_call`` events of ``thunk()``, and how many of the
    calls were the scalar ``_nearest_centroid``."""
    return profile_calls(thunk, kmeans._nearest_centroid.__code__)[1:]


def test_a_separated_split_never_reaches_the_scalar_fallback():
    """Per record: 2 events of routing, 2 of ``merge_cost``, and the leaf
    fingerprint of 8 keys x 50 floats spread over 200 records (about 12);
    16.5 in all against 435 for the per-record loop, one fallback row
    being 409."""
    job = SPEC.make_job()
    records = tuple(PointGenerator(seed=3, dimensions=50, clusters=8).points(200))
    partitioner = HashPartitioner(job.num_reducers)
    events, scalar = profile_events(
        lambda: run_map_task(job, records, partitioner, Telemetry(), "gate")
    )
    assert scalar == 0
    assert events <= 20 * len(records), events / len(records)

    loop_events, loop_scalar = profile_events(
        lambda: run_map_task(stripped(job), records, partitioner, Telemetry(), "gate")
    )
    assert loop_scalar == len(records)
    assert loop_events >= 400 * len(records)


@pytest.mark.parametrize(
    "centroids,point",
    [
        # The scalar raises OverflowError on the third centre; numpy's inf
        # there would leave a clear winner among the other two.
        ([(0.0, 0.0), (5.0, 0.0), (1e200, 0.0)], (0.1, 0.0)),
        # The scalar skips a NaN distance; numpy's argmin returns it.
        ([(math.nan, 0.0), (0.0, 0.0), (5.0, 0.0)], (0.1, 0.0)),
        ([(math.inf, 0.0), (0.0, 0.0)], (0.1, 0.0)),
        # Squares that underflow: relative error bounds say nothing here.
        ([(0.0,), (2e-162,), (1.0,)], (1.5e-162,)),
        ([(0.0, 0.0)], (3.0, 4.0)),  # K = 1: no runner-up
    ],
)
def test_rows_the_comparison_cannot_affirm_are_the_scalars(centroids, point):
    job = kmeans.kmeans_job(centroids, dimensions=len(point))
    clear = (0.2,) * len(point)
    expected = outcome(lambda: per_record(job, [clear, point]))
    assert outcome(lambda: job.map_split_fn([clear, point])) == expected
    _, scalar = profile_events(lambda: outcome(lambda: job.map_split_fn([point])))
    assert scalar == 1


def test_a_near_tie_block_does_reach_it():
    centroids = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]
    job = kmeans.kmeans_job(centroids, dimensions=2)
    on_a_bisector = [(1.0, -0.25), (1.0 + 1e-12, 0.5), (0.3, 1.0)]
    clear = [(0.1, 0.1), (1.9, 0.2)]
    _, scalar = profile_events(lambda: job.map_split_fn(on_a_bisector + clear))
    assert scalar == len(on_a_bisector)
    assert job.map_split_fn(on_a_bisector + clear) == per_record(
        job, on_a_bisector + clear
    )
