"""Unit tests for work metering and run reports."""

import pytest

from repro.metrics import Phase, RunReport, Speedup, WorkMeter


def test_charge_accumulates_per_phase():
    meter = WorkMeter()
    meter.charge(Phase.MAP, 3.0)
    meter.charge(Phase.MAP, 2.0)
    meter.charge(Phase.REDUCE, 1.0)
    assert meter.by_phase[Phase.MAP] == 5.0
    assert meter.total() == 6.0
    assert meter.phase_total(Phase.MAP, Phase.REDUCE) == 6.0


def test_negative_charge_rejected():
    with pytest.raises(ValueError):
        WorkMeter().charge(Phase.MAP, -1.0)


def test_foreground_excludes_background():
    meter = WorkMeter()
    meter.charge(Phase.MAP, 4.0)
    meter.charge(Phase.BACKGROUND, 10.0)
    assert meter.foreground_total() == 4.0
    assert meter.total() == 14.0


def test_merge_folds_counters():
    a, b = WorkMeter(), WorkMeter()
    a.charge(Phase.MAP, 1.0)
    b.charge(Phase.MAP, 2.0)
    b.charge(Phase.SHUFFLE, 3.0)
    a.merge(b)
    assert a.by_phase[Phase.MAP] == 3.0
    assert a.by_phase[Phase.SHUFFLE] == 3.0


def test_snapshot_and_reset():
    meter = WorkMeter()
    meter.charge(Phase.CONTRACTION, 2.5)
    assert meter.snapshot() == {"contraction": 2.5}
    meter.reset()
    assert meter.total() == 0.0
    assert meter.task_costs == []


def test_task_costs_recorded_when_tracking_enabled():
    meter = WorkMeter(track_tasks=True)
    meter.charge(Phase.MAP, 1.0)
    meter.charge(Phase.REDUCE, 2.0)
    assert meter.task_costs == [(Phase.MAP, 1.0), (Phase.REDUCE, 2.0)]


def test_task_costs_off_by_default():
    meter = WorkMeter()
    meter.charge(Phase.MAP, 1.0)
    meter.charge(Phase.REDUCE, 2.0)
    assert meter.task_costs == []
    assert meter.total() == 3.0


def test_speedup_over():
    fast = RunReport(label="fast", work=10.0, time=5.0)
    slow = RunReport(label="slow", work=100.0, time=20.0)
    speedup = fast.speedup_over(slow)
    assert speedup == Speedup(work=10.0, time=4.0)


def test_speedup_over_zero_denominator():
    zero = RunReport(label="zero", work=0.0, time=0.0)
    some = RunReport(label="some", work=5.0, time=5.0)
    speedup = zero.speedup_over(some)
    assert speedup.work == float("inf")
