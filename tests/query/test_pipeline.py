"""Integration tests: incremental query pipelines vs batch recompute."""

import pytest

from repro.common.errors import WindowError
from repro.query.pigmix import PIGMIX_QUERIES, PigMixDataGenerator, pigmix_query
from repro.query.pipeline import (
    NUM_BUCKETS,
    BatchQueryRunner,
    IncrementalQueryPipeline,
)
from repro.slider.window import WindowMode


@pytest.fixture(scope="module")
def generator():
    return PigMixDataGenerator(seed=21)


@pytest.fixture(scope="module")
def splits(generator):
    return generator.splits(count=16, rows_per_split=25)


def rows_equal(a, b):
    def normalize(rows):
        return sorted(
            (tuple(round(x, 6) if isinstance(x, float) else x for x in row))
            for row in rows
        )

    return normalize(a) == normalize(b)


@pytest.mark.parametrize("query_name", PIGMIX_QUERIES)
def test_initial_run_matches_batch(query_name, generator, splits):
    plan = pigmix_query(query_name, generator)
    incremental = IncrementalQueryPipeline(plan, WindowMode.VARIABLE)
    batch = BatchQueryRunner(plan)
    got = incremental.initial_run(splits[:10])
    want = batch.initial_run(splits[:10])
    assert rows_equal(got.rows, want.rows)


@pytest.mark.parametrize("query_name", PIGMIX_QUERIES)
def test_incremental_slides_match_batch(query_name, generator, splits):
    plan = pigmix_query(query_name, generator)
    incremental = IncrementalQueryPipeline(plan, WindowMode.VARIABLE)
    batch = BatchQueryRunner(plan)
    incremental.initial_run(splits[:10])
    batch.initial_run(splits[:10])

    for added, removed in [(splits[10:12], 2), (splits[12:13], 3), (splits[13:16], 0)]:
        got = incremental.advance(added, removed)
        want = batch.advance(added, removed)
        assert rows_equal(got.rows, want.rows), query_name


def test_multi_stage_pipeline_has_two_stage_works(generator, splits):
    plan = pigmix_query("L3_revenue_band_histogram", generator)
    pipeline = IncrementalQueryPipeline(plan, WindowMode.VARIABLE)
    result = pipeline.initial_run(splits[:8])
    assert len(result.stage_works) == 2
    assert all(work > 0 for work in result.stage_works)


def test_incremental_query_cheaper_on_small_slides(generator):
    plan = pigmix_query("L3_revenue_band_histogram", generator)
    splits = generator.splits(count=40, rows_per_split=25)
    incremental = IncrementalQueryPipeline(plan, WindowMode.VARIABLE)
    batch = BatchQueryRunner(plan)
    incremental.initial_run(splits[:36])
    batch.initial_run(splits[:36])

    got = incremental.advance(splits[36:38], 2)
    want = batch.advance(splits[36:38], 2)
    assert rows_equal(got.rows, want.rows)
    assert got.report.work < want.report.work


def test_second_stage_reuses_unchanged_buckets(generator):
    """The §5 property: later stages absorb small diffs via strawman trees."""
    plan = pigmix_query("L3_revenue_band_histogram", generator)
    splits = generator.splits(count=30, rows_per_split=25)
    pipeline = IncrementalQueryPipeline(plan, WindowMode.VARIABLE)
    initial = pipeline.initial_run(splits[:28])
    slide = pipeline.advance(splits[28:29], 1)
    # Second-stage work on a 1-split slide is below the initial second-stage
    # work (map memo hits on unchanged buckets keep it cheap).
    assert slide.stage_works[1] < initial.stage_works[1]


def test_unknown_query_name_rejected(generator):
    with pytest.raises(ValueError):
        pigmix_query("L99_nonexistent", generator)


def test_append_mode_pipeline(generator, splits):
    plan = pigmix_query("L1_total_revenue_per_user", generator)
    incremental = IncrementalQueryPipeline(plan, WindowMode.APPEND)
    batch = BatchQueryRunner(plan)
    incremental.initial_run(splits[:8])
    batch.initial_run(splits[:8])
    got = incremental.advance(splits[8:10], 0)
    want = batch.advance(splits[8:10], 0)
    assert rows_equal(got.rows, want.rows)


def test_a_pipeline_takes_its_caller_s_telemetry_and_checks_its_buckets():
    from repro.telemetry import Telemetry

    plan = pigmix_query("L3_revenue_band_histogram")
    telemetry = Telemetry(label="query")
    pipeline = IncrementalQueryPipeline(plan, telemetry=telemetry)
    assert pipeline.telemetry is telemetry and pipeline.slider.telemetry is telemetry
    (later,) = pipeline.later_stages
    rows = PigMixDataGenerator(seed=3).rows(100)
    assert len(later._bucketize(rows)) == NUM_BUCKETS


#: id -> (whether initial_run ran first, the call that must raise)
BAD_CALLS = {
    "advance_first": (False, lambda runner, splits: runner.advance(splits[:1], 0)),
    "second_initial_run": (True, lambda runner, splits: runner.initial_run(splits)),
    "negative_removal": (True, lambda runner, splits: runner.advance(splits[:1], -1)),
    "removal_past_window": (True, lambda runner, splits: runner.advance([], 99)),
}


@pytest.mark.parametrize("started,bad_call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_the_batch_runner_refuses_what_its_incremental_twin_refuses(
    started, bad_call, splits
):
    runner = BatchQueryRunner(pigmix_query("L1_total_revenue_per_user"))
    if started:
        runner.initial_run(splits[:4])
    with pytest.raises(WindowError):
        bad_call(runner, splits[:4])
