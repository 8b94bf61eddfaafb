"""A plan nobody reads is never built.

An advance logs its steps in its one log of flat records; ``PlanStep``
values exist only once somebody reads ``result.plan.steps``.  So no
advance makes one, in the engine's process or in a worker, and a
worker's reply carries records.  The walks are ``test_graph_unbuilt``'s.
"""

from __future__ import annotations

import pytest

from repro.core.plan import STEP
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
        # The workers' records sit in the run's log after the parent's
        # share and before the reduce records, reducer by reducer, and the
        # plan reads its steps from them.
        records = [record for reply in replies[-2:] for record in reply["log"]]
        log = last.plan.log.records
        end = next(
            index
            for index, record in enumerate(log)
            if record[STEP] is not None and record[STEP][0] == "reduce"
        )
        assert log[end - len(records) : end] == records
        steps = [step for step in last.plan.steps if step.op not in ("map", "reduce")]
        reducers = [step.reducer for step in steps]
        assert reducers == sorted(reducers) and set(reducers) == {0, 1, 2, 3}
        assert reducers.count(2) + reducers.count(3) == sum(
            record[STEP] is not None for record in records
        )
