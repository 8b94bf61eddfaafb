"""The oracle at tall windows: windows drawn up to 1 024 splits, moved in
bulk (soak only: ``pytest -m soak tests/oracle/test_tall.py``).

The machine keeps a variable window to ``MAX_WINDOW`` splits, so that a
folding tree's structural state recurs and the process arm dispatches;
none of its trees is more than four levels tall.  Here the window is drawn
up to :data:`TALL` splits and moved there in bulk, so that the balanced
sweep unfolds, folds and recomputes a tree ten levels tall, and a rotating
tree sweeps up to a thousand buckets.  Every arm runs each rule in
lockstep, its run compared with the reference's; :meth:`Fleet.check`,
which also recomputes the window from scratch, runs every
:data:`CHECK_EVERY` rules.  There is no process arm: a structural period
this long is never in the plan cache, so it would never dispatch.
"""

from __future__ import annotations

import random

import pytest

from repro.slider.window import WindowMode
from tests.oracle.fleet import ALL, Fleet, case_of

TALL = 1024
RULES = 40
CHECK_EVERY = 5
ARMS = ("reference", "kept", "recount", "restored")
#: name -> (case, the height its tree must reach): a skip-list level
#: stops at two nodes, so a randomized tree stays lower.
TALL_CASES = {
    "folding": (case_of("folding"), 10),
    "randomized": (case_of("randomized"), 5),
    "rotating": (case_of("rotating"), 10),
    "rotating_split": (case_of("rotating", True), 10),
}


def _variable_motion(rng: random.Random, size: int) -> tuple[int, int]:
    """Toward a window size drawn up to :data:`TALL`, in a bulk step (or,
    now and then, the window-emptying eviction or a one-in-one-out)."""
    roll = rng.random()
    if roll < 0.05:
        return rng.randint(1, 64), ALL
    if roll < 0.25:
        return 1, 1
    target = rng.randint(1, TALL)
    step = rng.choice([16, 128, 512])
    return min(step, max(0, target - size)), min(step, max(0, size - target))


@pytest.mark.soak
@pytest.mark.parametrize("name", TALL_CASES)
def test_a_tall_window_agrees_with_the_reference(name):
    case, height = TALL_CASES[name]
    rng = random.Random(f"tall-{name}")
    first = rng.randint(TALL // 2 + 1, TALL)
    heights = set()
    with Fleet(case, arms=ARMS, first=first, max_window=TALL) as fleet:
        fleet.check()
        for rule in range(1, RULES + 1):
            if case[1] is WindowMode.FIXED:
                if case[2] and rng.random() < 0.3:
                    fleet.background()
                k = rng.choice([1, 1, 3, 64, 300])
                fleet.advance(k, k)
            else:
                size = len(fleet.reference.window)
                fleet.advance(*_variable_motion(rng, size))
            heights.update(tree.height for tree in fleet.reference.trees)
            if rule % CHECK_EVERY == 0:
                fleet.check()
    assert max(heights) >= height, sorted(heights)
