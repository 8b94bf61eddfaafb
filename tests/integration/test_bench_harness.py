"""Tests for the benchmark harness and formatting helpers."""

import pytest

from repro.apps.registry import APP_REGISTRY
from repro.bench.format import format_series, format_table
from repro.bench.harness import (
    SlideSchedule,
    run_change_sweep,
    run_experiment,
)
from repro.slider.window import WindowMode


def test_schedule_for_change_append():
    schedule = SlideSchedule.for_change(WindowMode.APPEND, 40, 10, rounds=3)
    assert schedule.slides == ((4, 0), (4, 0), (4, 0))


def test_schedule_for_change_fixed():
    schedule = SlideSchedule.for_change(WindowMode.FIXED, 40, 25)
    assert schedule.slides == ((10, 10), (10, 10))


def test_schedule_minimum_delta_is_one():
    schedule = SlideSchedule.for_change(WindowMode.VARIABLE, 10, 5)
    assert schedule.slides[0] == (1, 1)


@pytest.mark.parametrize("variant", ["slider", "vanilla", "strawman"])
def test_run_experiment_produces_reports(variant):
    spec = APP_REGISTRY["hct"]
    schedule = SlideSchedule.for_change(WindowMode.VARIABLE, 12, 10)
    experiment = run_experiment(spec, WindowMode.VARIABLE, schedule, variant)
    assert experiment.initial.work > 0
    assert len(experiment.incremental) == 2
    assert all(r.work > 0 for r in experiment.incremental)


def test_an_unknown_variant_is_rejected():
    schedule = SlideSchedule.for_change(WindowMode.VARIABLE, 12, 10)
    with pytest.raises(ValueError, match="unknown variant 'hadoop'"):
        run_experiment(APP_REGISTRY["hct"], WindowMode.VARIABLE, schedule, "hadoop")


def test_background_each_round_records_one_background_pass_a_slide():
    # Figure 11's split processing: a background pass before every slide.
    schedule = SlideSchedule.for_change(WindowMode.FIXED, 12, 25, rounds=3)
    experiment = run_experiment(
        APP_REGISTRY["hct"],
        WindowMode.FIXED,
        schedule,
        "slider",
        split_mode=True,
        background_each_round=True,
    )
    assert len(experiment.background_work) == len(schedule.slides) == 3
    assert all(work > 0 for work in experiment.background_work)


def test_variants_agree_on_outputs():
    spec = APP_REGISTRY["hct"]
    schedule = SlideSchedule.for_change(WindowMode.VARIABLE, 12, 10)
    digests = {
        variant: run_experiment(
            spec, WindowMode.VARIABLE, schedule, variant
        ).outputs_digest
        for variant in ("slider", "vanilla", "strawman")
    }
    assert len(set(digests.values())) == 1


def test_sweep_speedups_decrease_with_change():
    spec = APP_REGISTRY["hct"]
    sweep = run_change_sweep(
        spec,
        WindowMode.APPEND,
        "vanilla",
        change_percents=(5, 25),
        window_splits=30,
        use_cluster=False,
    )
    assert sweep.work_speedups[0] > sweep.work_speedups[-1] > 1.0


def test_fixed_mode_experiment_uses_bucketed_slides():
    spec = APP_REGISTRY["hct"]
    schedule = SlideSchedule.for_change(WindowMode.FIXED, 20, 20)
    experiment = run_experiment(spec, WindowMode.FIXED, schedule, "slider")
    assert len(experiment.incremental) == 2


def test_format_table_alignment():
    text = format_table("T", ["a", "bbbb"], [[1, 2.5], [10, 3.25]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "bbbb" in lines[2]
    assert "2.50" in text and "3.25" in text


def test_format_series_rows_per_series():
    text = format_series("S", "x", [5, 10], {"app": [1.5, 2.0]})
    assert "app" in text
    assert "1.50" in text and "2.00" in text
