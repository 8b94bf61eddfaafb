"""A plan nobody reads is never built.

An advance logs its plan as flat records; ``PlanStep`` values exist only
once somebody reads ``result.plan.steps``.  So no advance makes one, in
the engine's process or in a worker, and a worker's reply carries
records.  The walks are ``test_graph_unbuilt``'s.
"""

from __future__ import annotations

import pytest

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
    with dispatched(variant, monkeypatch, "plan", b"PlanStep") as (last, replies):
        # The reducers' records sit in the run's plan between the
        # engine's own map and reduce steps, reducer by reducer.
        records = [record for reply in replies[-2:] for record in reply["plan"]]
        assert last.plan.records[1:-2] == records
        reducers = [step.reducer for step in last.plan.steps[1:-2]]
        assert reducers == sorted(reducers)
