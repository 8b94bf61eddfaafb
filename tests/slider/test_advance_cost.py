"""O(log n) as a count, not a clock.

The plan of one slide has O(delta * log window) steps; the interpreter
work of ``advance`` must follow the steps and nothing else.  Counted, not
timed: the ``call`` and ``c_call`` profile events of one steady-state
advance at window 64 and at window 2 048 — their ratio may exceed the
ratio of plan steps by a quarter at most.  A loop over the window, the
map memo or a tree's node cache anywhere under ``advance`` adds thousands
of events at 2 048 and fails this (before retained space and collection
became deltas the folding case read 4.9x against 1.7x).

The same count holds bulk motion to one walk: ``advance(added=k,
removed=k)`` against ``k`` advances of one split.
"""

from __future__ import annotations

import statistics

import pytest

from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.conftest import profile_calls
from tests.oracle.fleet import VARIANTS, count_job, split_of

#: Consecutive slides measured (after as many unmeasured): the median
#: over them is the same at every phase of the tree's structural period.
SLIDES = 32


def _events_and_steps(variant: str, mode: WindowMode, window: int) -> tuple:
    # Named backend: a dispatched advance runs in another interpreter.
    config = SliderConfig(
        mode=mode, tree=variant, execution_backend="inprocess", workers=1
    )
    engine = Slider(count_job(), mode, config)
    engine.initial_run([split_of(i) for i in range(window)])
    events: list[int] = []
    steps: list[int] = []
    try:
        for i in range(window, window + 2 * SLIDES):
            added = [split_of(i)]
            if i < window + SLIDES:
                engine.advance(added, 1)
                continue
            result, count, _ = profile_calls(lambda: engine.advance(added, 1))
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


#: Measured bulk / one-at-a-time event ratios at window 64, k = 8: folding
#: 0.26, randomized 0.15, strawman 0.14, coalescing 0.43 (its walk is 7 steps,
#: so the 8 map tasks are most of either side) — and rotating 0.89: it
#: re-walks the root path once per rotated bucket (ROADMAP item 7).
_BULK = [
    pytest.param(
        variant,
        mode,
        marks=pytest.mark.xfail(strict=True, reason="0.89: one walk per bucket")
        if variant == "rotating"
        else (),
    )
    for variant, mode in VARIANTS
]


@pytest.mark.parametrize("variant,mode", _BULK)
def test_bulk_motion_costs_one_walk_not_k(variant, mode, window=64, k=8):
    config = SliderConfig(
        mode=mode, tree=variant, execution_backend="inprocess", workers=1
    )
    removed = 0 if mode is WindowMode.APPEND else 1
    costs = {}
    for step in (1, k):
        engine = Slider(count_job(), mode, config)
        engine.initial_run([split_of(i) for i in range(window)])
        rounds = []
        try:
            for start in range(window, window + 6 * k, k):
                events = 0
                for first in range(start, start + k, step):
                    added = [split_of(i) for i in range(first, first + step)]
                    events += profile_calls(
                        lambda: engine.advance(added, removed * step)
                    )[1]
                rounds.append(events)
        finally:
            engine.close()
        costs[step] = statistics.median(rounds[2:])
    assert costs[k] <= 0.5 * costs[1], (
        f"{variant}: {costs[k]:.0f} events for one advance of {k} against "
        f"{costs[1]:.0f} for {k} of one ({costs[k] / costs[1]:.2f}x)"
    )
