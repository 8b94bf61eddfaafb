"""Figure 10: incremental data-flow query processing (PigMix-style).

Runs the PigMix-like query suite in all three window modes with a 5 %
input change and reports work and time speedups of the incremental pipeline
over batch recomputation.  The paper reports average speedups of ~11x work
and ~2.5x time; the expected shape is work speedup >> time speedup > 1.
"""

from __future__ import annotations

import pytest

from repro.bench.format import format_table
from repro.query.pigmix import PIGMIX_QUERIES, PigMixDataGenerator, pigmix_query
from repro.query.pipeline import BatchQueryRunner, IncrementalQueryPipeline
from repro.slider.window import WindowMode

WINDOW_SPLITS = 40
CHANGE_PERCENT = 5


def run_query_suite(mode: WindowMode) -> tuple[float, float, list]:
    generator = PigMixDataGenerator(seed=33)
    splits = generator.splits(count=WINDOW_SPLITS + 6, rows_per_split=25)
    delta = max(1, WINDOW_SPLITS * CHANGE_PERCENT // 100)
    removed = 0 if mode is WindowMode.APPEND else delta

    rows = []
    work_speedups = []
    time_speedups = []
    for name in PIGMIX_QUERIES:
        plan = pigmix_query(name, generator)
        incremental = IncrementalQueryPipeline(plan, mode)
        batch = BatchQueryRunner(plan)
        incremental.initial_run(splits[:WINDOW_SPLITS])
        batch.initial_run(splits[:WINDOW_SPLITS])
        added = splits[WINDOW_SPLITS : WINDOW_SPLITS + delta]
        got = incremental.advance(added, removed)
        want = batch.advance(added, removed)
        work_speedup = want.report.work / got.report.work
        time_speedup = want.report.time / got.report.time
        rows.append([name, work_speedup, time_speedup])
        work_speedups.append(work_speedup)
        time_speedups.append(time_speedup)
    mean_work = sum(work_speedups) / len(work_speedups)
    mean_time = sum(time_speedups) / len(time_speedups)
    rows.append(["MEAN", mean_work, mean_time])
    return mean_work, mean_time, rows


@pytest.mark.parametrize("mode", list(WindowMode), ids=lambda m: m.value)
def test_fig10_query_processing(mode):
    mean_work, mean_time, rows = run_query_suite(mode)
    print()
    print(
        format_table(
            f"Figure 10 — PigMix-style query suite, {mode.value} mode, "
            f"{CHANGE_PERCENT}% change",
            ["query", "work speedup", "time speedup"],
            rows,
        )
    )
    # Shape: clear work win, positive time win, work >= time.
    assert mean_work > 2.0
    assert mean_time > 1.0
    assert mean_work >= mean_time
