"""O(log n) as a count, not a clock.

The plan of one slide has O(delta * log window) steps; the interpreter
work of ``advance`` must follow the steps and nothing else.  Counted, not
timed: the ``call`` and ``c_call`` profile events of one steady-state
advance at window 64 and at window 2 048 — their ratio may exceed the
ratio of plan steps by a quarter at most.  A loop over the window, the
map memo or a tree's node cache anywhere under ``advance`` adds thousands
of events at 2 048 and fails this (before retained space and collection
became deltas the folding case read 4.9x against 1.7x).
"""

from __future__ import annotations

import statistics
import sys

import pytest

from repro.slider.equivalence import _scenario_job, _scenario_split as _split
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode

#: Consecutive slides measured (after as many unmeasured): the median
#: over them is the same at every phase of the tree's structural period.
SLIDES = 32


def _events_and_steps(variant: str, mode: WindowMode, window: int) -> tuple:
    # Named backend: a dispatched advance runs in another interpreter.
    config = SliderConfig(
        mode=mode, tree=variant, execution_backend="inprocess", workers=1
    )
    engine = Slider(_scenario_job(), mode, config)
    engine.initial_run([_split(i) for i in range(window)])
    events: list[int] = []
    steps: list[int] = []
    count = 0

    def on_event(frame, event, arg) -> None:
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    try:
        for i in range(window, window + 2 * SLIDES):
            added = [_split(i)]
            if i < window + SLIDES:
                engine.advance(added, 1)
                continue
            count = 0
            sys.setprofile(on_event)
            try:
                result = engine.advance(added, 1)
            finally:
                sys.setprofile(None)
            events.append(count)
            steps.append(len(result.plan))
    finally:
        engine.close()
    return statistics.median(events), statistics.median(steps)


@pytest.mark.parametrize(
    "variant,mode",
    [("folding", WindowMode.VARIABLE), ("rotating", WindowMode.FIXED)],
)
def test_interpreter_work_follows_the_plan_not_the_window(variant, mode):
    small_events, small_steps = _events_and_steps(variant, mode, 64)
    large_events, large_steps = _events_and_steps(variant, mode, 2048)
    assert large_steps > small_steps  # the tree did get deeper
    event_ratio = large_events / small_events
    step_ratio = large_steps / small_steps
    assert event_ratio <= 1.25 * step_ratio, (
        f"{variant}: {small_events:.0f} -> {large_events:.0f} events "
        f"({event_ratio:.2f}x) against {small_steps:.0f} -> {large_steps:.0f} "
        f"plan steps ({step_ratio:.2f}x)"
    )
