"""The static race pass against what executed: on real engines, every
conflict two executed nodes of one run have between them must be one the
plan-level pass flags.  The nodes are read off each run's log records
(what executed), not off the plan the pass reads."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.races import analyze_plan
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.oracle.fleet import SPLIT_UID, VARIANTS, count_job, split_of


def observed_conflicts(result) -> list[str]:
    """The map-memo slots two executed Map tasks of one run both wrote.

    Map tasks run concurrently, so a slot written twice is a race.  Every
    later node runs in its reducer's lane, writes only that lane's state
    and content-addressed memo slots (idempotent), so it cannot race.
    """
    writes = Counter(
        f"map_memo:{record[SPLIT_UID]:#x}"
        for record in result.plan.log.records
        if record[0] == "map"
    )
    return [slot for slot, count in writes.items() if count > 1]


@pytest.mark.parametrize(
    "variant,mode", [(variant, mode.value) for variant, mode in VARIANTS]
)
def test_static_pass_covers_execution(variant, mode):
    window_mode = WindowMode(mode)
    engine = Slider(
        count_job("dynamic-check"),
        mode=window_mode,
        config=SliderConfig(tree=variant, mode=window_mode),
    )
    try:
        splits = [split_of(i, spread=9, n=12) for i in range(7)]
        removed = 0 if window_mode is WindowMode.APPEND else 1
        results = [engine.initial_run(splits[:4])]
        results += [engine.advance([split], removed) for split in splits[4:]]
        executed = 0
        for result in results:
            executed += sum(record[0] is not None for record in result.plan.log.records)
            errors = [
                f.message for f in analyze_plan(result.plan) if f.severity == "error"
            ]
            missed = [
                slot
                for slot in observed_conflicts(result)
                if not any(slot in message for message in errors)
            ]
            assert missed == [], missed
        assert executed > 0
    finally:
        engine.close()
