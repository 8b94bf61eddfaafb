"""A plan nobody reads is never built.

An advance logs its steps in its one log of flat records; ``PlanStep``
values exist only once somebody reads ``result.plan.steps``.  So no
advance makes one, in the engine's process or in a worker, and a
worker's reply carries records.  The walks are ``test_graph_unbuilt``'s.
"""

from __future__ import annotations

import pytest

from repro.core.taskgraph import STEP
from tests.slider.test_graph_unbuilt import (
    DISPATCHING,
    VARIANTS,
    dispatched,
    unread,
)


@pytest.mark.parametrize("variant,mode", VARIANTS)
def test_an_advance_builds_no_step(variant, mode):
    with unread(variant) as (results, built):
        assert sum(len(result.plan) for result in results) > 64 * 3
        assert built == []  # len does not build either
        last = results[-1].plan
        assert [step.op for step in last.steps] and len(built) == len(last) >= 3
        assert last.steps and len(built) == len(last)  # a second read builds nothing


@pytest.mark.parametrize("variant,mode", DISPATCHING)
def test_a_worker_builds_no_step_and_replies_with_records(variant, mode, monkeypatch):
    with dispatched(variant, monkeypatch) as (last, replies):
        # The reducers' records sit in the run's log between the engine's
        # own map and reduce records, reducer by reducer, and the plan
        # reads its steps from them.
        records = [record for reply in replies[-2:] for record in reply["log"]]
        log = last.plan.log.records
        start = next(
            index
            for index, record in enumerate(log)
            if record[STEP] is not None and record[STEP][0] != "map"
        )
        assert log[start : start + len(records)] == records
        assert {record[STEP][0] for record in log[start + len(records) :]
                if record[STEP] is not None} == {"reduce"}
        steps = last.plan.steps[1:-2]
        assert len(steps) == sum(record[STEP] is not None for record in records)
        reducers = [step.reducer for step in steps]
        assert reducers == sorted(reducers)
