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
removed=k)`` against ``k`` advances of one split, an advance that
changes no leaf walks no level of a folding tree, and a level sweep's
node costs one executor call.
"""

from __future__ import annotations

import statistics

import pytest

from repro.apps.registry import micro_benchmark_apps
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


def test_an_empty_advance_walks_no_level():
    """Counted on the registry hct job, folding tree, variable window 40:
    ``advance([], 0)`` leaves no level mark and no tree node record, and
    the next one-in-one-out advance logs the same records and charges
    the same work as on a twin engine that skipped the empty one."""
    spec = next(s for s in micro_benchmark_apps() if s.name == "hct")
    splits = spec.make_splits(46, 17, 0)
    config = SliderConfig(
        mode=WindowMode.VARIABLE, tree="folding", execution_backend="inprocess"
    )
    engine, twin = (
        Slider(spec.make_job(), WindowMode.VARIABLE, config) for _ in range(2)
    )
    try:
        for slider in (engine, twin):
            slider.initial_run(splits[:40])
            for split in splits[40:44]:
                slider.advance([split], 1)
        assert min(tree.height for tree in engine.trees) == 6
        empty = engine.advance([], 0).plan.log
        assert empty.marks == []
        assert [r for r in empty.records if str(r[2]).startswith("fold:")] == []
        for split in splits[44:]:
            result, twin_result = engine.advance([split], 1), twin.advance([split], 1)
            log, twin_log = result.plan.log, twin_result.plan.log
            assert len(log.marks) == 6 * len(engine.trees)
            assert log.records == twin_log.records
            assert result.report.work.hex() == twin_result.report.work.hex()
    finally:
        engine.close()
        twin.close()


#: Profile events of a balanced tree's sweep per node it logs, on the
#: hct folding advance below: 99.7 while a node went through six frames
#: (two child reads, ``_combine``, ``PlanExecutor.combine``,
#: ``open_step``, ``_set_node``), 59.4 as one ``combine_pair`` call.  The
#: bound sits within one event a node of the latter, so a per-node frame
#: brought back fails.
SWEEP_EVENTS_PER_NODE = 60.0


def test_a_contraction_node_is_one_executor_call(length_terms):
    """Counted on the registry hct job, folding tree, variable window 40,
    one split in and one out, after a structural period of warm-up: the
    ``call`` and ``c_call`` events of every level sweep of 16 steady
    advances, over the tree nodes they logged.  (Length terms start
    empty, so each is a miss the warm-up makes.)"""
    spec = next(s for s in micro_benchmark_apps() if s.name == "hct")
    splits = spec.make_splits(40 + 64 + 16, 17, 0)
    config = SliderConfig(
        mode=WindowMode.VARIABLE, tree="folding", execution_backend="inprocess"
    )
    engine = Slider(spec.make_job(), WindowMode.VARIABLE, config)
    events = nodes = 0

    def counted(sweep):
        def propagate(*args):
            nonlocal events
            events += profile_calls(lambda: sweep(*args))[1]

        return propagate

    try:
        engine.initial_run(splits[:40])
        for split in splits[40:104]:
            engine.advance([split], 1)
        for tree in engine.trees:
            tree._propagate = counted(tree._propagate)
        for split in splits[104:]:
            records = engine.advance([split], 1).plan.log.records
            nodes += sum(1 for r in records if str(r[2]).startswith("fold:"))
    finally:
        engine.close()
    assert nodes == 704
    assert events / nodes <= SWEEP_EVENTS_PER_NODE, f"{events} events, {nodes} nodes"
