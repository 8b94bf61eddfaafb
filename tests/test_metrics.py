"""Unit tests for work accounting on Telemetry and for run reports."""

import pytest

from repro.core.execute import PlanExecutor
from repro.core.partition import Partition
from repro.metrics import Phase, RunReport, Speedup
from repro.telemetry import Telemetry


def test_charge_accumulates_per_phase():
    telemetry = Telemetry(label="t")
    telemetry.charge(Phase.MAP, 3.0)
    telemetry.charge(Phase.MAP, 2.0)
    telemetry.charge(Phase.REDUCE, 1.0)
    assert telemetry.by_phase[Phase.MAP] == 5.0
    assert telemetry.total() == 6.0
    assert telemetry.by_phase == {Phase.MAP: 5.0, Phase.REDUCE: 1.0}


def test_negative_charge_rejected():
    with pytest.raises(ValueError):
        Telemetry(label="t").charge(Phase.MAP, -1.0)


def test_merge_folds_counters():
    """Two executors handed one telemetry charge one tree (what ``merge``
    did)."""
    shared = Telemetry(label="shared")
    a, b = PlanExecutor(shared), PlanExecutor(shared)
    leaf = Partition({"k": 1})
    a.memo_visit(leaf, 1.0)
    b.memo_visit(leaf, 2.0)
    shared.charge(Phase.SHUFFLE, 3.0)
    assert a.telemetry.by_phase == {Phase.MEMO_READ: 3.0, Phase.SHUFFLE: 3.0}
    assert a.telemetry.total() == b.telemetry.total() == 6.0
    assert [span.name for span in shared.root.children] == ["memo-visit"] * 2


def test_snapshot_and_reset():
    telemetry = Telemetry(label="t")
    telemetry.charge(Phase.CONTRACTION, 2.5)
    snapshot = telemetry.snapshot()
    assert snapshot.by_phase == {"contraction": 2.5}
    telemetry.charge(Phase.CONTRACTION, 1.0)
    assert snapshot.by_phase == {"contraction": 2.5}  # a copy, not a live view
    telemetry.reset()
    assert telemetry.by_phase == {} and telemetry.total() == 0.0
    assert snapshot.total() == 2.5


def test_task_costs_off_by_default():
    telemetry = Telemetry(label="t")
    telemetry.charge(Phase.MAP, 1.0)
    telemetry.charge(Phase.REDUCE, 2.0)
    assert telemetry.by_phase == {Phase.MAP: 1.0, Phase.REDUCE: 2.0}
    assert not hasattr(telemetry, "task_costs")
    assert telemetry.total() == 3.0


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
