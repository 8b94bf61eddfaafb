"""Unit tests for work metering and run reports."""

import pytest

from repro.metrics import Phase, RunReport, Speedup, WorkMeter
from repro.telemetry import Telemetry


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
    """Meters sharing one telemetry fold into one tree (what ``merge`` did)."""
    shared = Telemetry(label="shared")
    a, b = WorkMeter(shared), WorkMeter(shared)
    a.charge(Phase.MAP, 1.0)
    b.charge(Phase.MAP, 2.0)
    b.charge(Phase.SHUFFLE, 3.0)
    assert a.by_phase[Phase.MAP] == 3.0
    assert a.by_phase[Phase.SHUFFLE] == 3.0


def test_snapshot_and_reset():
    meter = WorkMeter()
    meter.charge(Phase.CONTRACTION, 2.5)
    snapshot = meter.snapshot()
    assert snapshot == {"contraction": 2.5}
    meter.charge(Phase.CONTRACTION, 1.0)
    assert snapshot == {"contraction": 2.5}  # a copy, not a live view
    assert not hasattr(meter, "reset")


def test_task_costs_recorded_when_tracking_enabled():
    """The per-charge log is gone: charges live in the span tree only."""
    with pytest.raises(TypeError, match="track_tasks"):
        WorkMeter(track_tasks=True)


def test_task_costs_off_by_default():
    meter = WorkMeter()
    meter.charge(Phase.MAP, 1.0)
    meter.charge(Phase.REDUCE, 2.0)
    assert meter.telemetry.by_phase == {Phase.MAP: 1.0, Phase.REDUCE: 2.0}
    assert not hasattr(meter, "task_costs")
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
