"""A plan nobody reads is never built.

An advance logs its plan as flat records; ``PlanStep`` values exist only
once somebody reads ``result.plan.steps``.  So no advance makes one, in
the engine's process or in a worker, and a worker's reply carries
records.  The scenarios are ``test_graph_unbuilt``'s.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core.parallel import WorkerPool
from repro.core.plan import PlanStep
from tests.slider.test_graph_unbuilt import (
    DISPATCHING,
    VARIANTS,
    make_slider,
    steady,
)


@pytest.fixture
def made(monkeypatch):
    """The ``PlanStep`` constructions of this process, one entry each; in
    any other process (a forked worker) constructing one raises, which
    reaches the parent as a ``backend.worker_fallbacks`` count."""
    made: list[str] = []
    init, home = PlanStep.__init__, os.getpid()

    def counting(self, *args, **kwargs):
        if os.getpid() != home:
            raise AssertionError("a worker built a PlanStep")
        init(self, *args, **kwargs)
        made.append(self.op)

    monkeypatch.setattr(PlanStep, "__init__", counting)
    return made


@pytest.mark.parametrize("variant,mode", VARIANTS)
def test_an_advance_builds_no_step(variant, mode, made):
    slider = make_slider(variant, mode)
    results = steady(slider, mode, 64)
    slider.background_preprocess()
    slider.verify_outputs()
    assert made == []
    assert sum(len(result.plan) for result in results) > 64 * 3
    assert made == []  # len does not build either
    last = results[-1].plan
    assert [step.op for step in last.steps] == made
    assert len(made) == len(last) >= 3
    assert last.steps and len(made) == len(last)  # a second read builds nothing


@pytest.mark.parametrize("variant,mode", DISPATCHING)
def test_a_worker_builds_no_step_and_replies_with_records(
    variant, mode, made, monkeypatch
):
    replies = []
    receive = WorkerPool.receive

    def spy(self, worker):
        value, size = receive(self, worker)
        replies.append(value)
        return value, size

    monkeypatch.setattr(WorkerPool, "receive", spy)
    slider = make_slider(variant, mode, execution_backend="process", workers=2)
    try:
        results = steady(slider, mode, 64)
        counters = slider.telemetry.counters
        assert counters["backend.dispatched_reducers"] == len(replies) > 64
        assert counters.get("backend.worker_fallbacks", 0) == 0
        assert made == []
        for reply in replies:
            assert type(reply["plan"]) is list and reply["plan"]
            assert all(type(record) is tuple for record in reply["plan"])
            assert b"PlanStep" not in pickle.dumps(reply)
        # The reducers' records sit in the run's plan between the
        # engine's own map and reduce steps, reducer by reducer.
        last = results[-1].plan
        dispatched = [r for reply in replies[-2:] for r in reply["plan"]]
        assert last.records[1:-2] == dispatched
        assert [step.reducer for step in last.steps[1:-2]] == sorted(
            step.reducer for step in last.steps[1:-2]
        )
        assert len(made) == len(last)
    finally:
        slider.close()
