"""Golden plan shapes per variant, and plan memo-cache independence.

The plan is the memo-independent artifact of a run: what a window update
*will* compute, before the cache decides what actually runs.  Two suites
pin that down:

* golden shape tests — node counts, op mix, cache-edge counts, and level
  structure for every tree variant on the initial run and a mixed
  advance, frozen as literals so planner changes are deliberate;
* memo-independence — emptying every memo cache between runs must not
  change the plan (signature-identical) nor the outputs, for every
  variant and (via hypothesis) across random window movements.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.oracle.fleet import VARIANTS, count_job, split_of

#: Captured from the fixed scenario below: 6-split initial run, then
#: advance by [s10, s11] removing 2 (0 in append mode).
GOLDEN_SHAPES = {
    "folding": {
        "initial": {
            "steps": 20,
            "ops": {"map": 6, "combine": 12, "reduce": 2},
            "cache_edges": 6,
            "levels": {1: 6, 2: 4, 3: 2},
        },
        "advance": {
            "steps": 14,
            "ops": {"map": 2, "combine": 10, "reduce": 2},
            "cache_edges": 2,
            "levels": {1: 4, 2: 4, 3: 2},
        },
    },
    "randomized": {
        "initial": {
            "steps": 13,
            "ops": {"map": 6, "combine": 5, "reduce": 2},
            "cache_edges": 11,
            "levels": {0: 2, 1: 2, 2: 1},
        },
        "advance": {
            "steps": 6,
            "ops": {"map": 2, "combine": 2, "reduce": 2},
            "cache_edges": 4,
            "levels": {0: 2},
        },
    },
    "strawman": {
        "initial": {
            "steps": 18,
            "ops": {"map": 6, "combine": 10, "reduce": 2},
            "cache_edges": 6,
            "levels": {0: 6, 1: 2, 2: 2},
        },
        "advance": {
            "steps": 14,
            "ops": {"map": 2, "combine": 10, "reduce": 2},
            "cache_edges": 2,
            "levels": {0: 6, 1: 2, 2: 2},
        },
    },
    "rotating": {
        "initial": {
            "steps": 32,
            "ops": {"map": 6, "combine": 24, "reduce": 2},
            "cache_edges": 6,
            "levels": {1: 6, 2: 4, 3: 2},
        },
        "advance": {
            "steps": 20,
            "ops": {"map": 2, "combine": 16, "reduce": 2},
            "cache_edges": 2,
            "levels": {1: 4, 2: 4, 3: 4},
        },
    },
    "coalescing": {
        "initial": {
            "steps": 10,
            "ops": {"map": 6, "combine": 2, "reduce": 2},
            "cache_edges": 6,
            "levels": {},
        },
        "advance": {
            "steps": 8,
            "ops": {"map": 2, "combine": 4, "reduce": 2},
            "cache_edges": 2,
            "levels": {},
        },
    },
}


def make_slider(variant, mode):
    return Slider(
        count_job(), mode, config=SliderConfig(mode=mode, tree=variant)
    )


def clear_memos(slider: Slider) -> None:
    """Empty every memo cache, leaving window/tree structure intact."""
    for tree in slider.trees:
        tree.memo.entries.clear()
    slider.map_memo.clear()
    for per_reducer in slider.reduce_memo:
        per_reducer.clear()


# ---------------------------------------------------------------------------
# golden shapes


@pytest.mark.parametrize("variant,mode", VARIANTS)
def test_plan_shape_matches_golden(variant, mode):
    slider = make_slider(variant, mode)
    initial = slider.initial_run([split_of(i) for i in range(6)])
    assert initial.plan is not None
    assert initial.plan.shape() == GOLDEN_SHAPES[variant]["initial"]
    removed = 0 if mode is WindowMode.APPEND else 2
    advance = slider.advance([split_of(10), split_of(11)], removed)
    assert advance.plan.shape() == GOLDEN_SHAPES[variant]["advance"]


@pytest.mark.parametrize("variant,mode", VARIANTS)
def test_plan_steps_have_contiguous_uids(variant, mode):
    slider = make_slider(variant, mode)
    result = slider.initial_run([split_of(i) for i in range(6)])
    assert [s.uid for s in result.plan.steps] == list(range(len(result.plan)))


# ---------------------------------------------------------------------------
# memo independence


@pytest.mark.parametrize("variant,mode", VARIANTS)
def test_plan_is_memo_cache_independent(variant, mode):
    """A cold-cache run plans exactly what a warm-cache run plans."""
    warm = make_slider(variant, mode)
    cold = make_slider(variant, mode)
    warm_initial = warm.initial_run([split_of(i) for i in range(6)])
    cold_initial = cold.initial_run([split_of(i) for i in range(6)])
    assert warm_initial.plan.signature() == cold_initial.plan.signature()

    clear_memos(cold)
    removed = 0 if mode is WindowMode.APPEND else 2
    warm_adv = warm.advance([split_of(10), split_of(11)], removed)
    cold_adv = cold.advance([split_of(10), split_of(11)], removed)
    assert warm_adv.plan.signature() == cold_adv.plan.signature()
    assert warm_adv.outputs == cold_adv.outputs
    # The cold run can only have recomputed more, never less.
    assert cold_adv.report.work >= warm_adv.report.work


@settings(max_examples=20, deadline=None)
@given(
    moves=st.lists(
        st.tuples(st.integers(1, 3), st.integers(0, 2)),
        min_size=1,
        max_size=4,
    )
)
def test_folding_plan_memo_independent_across_movements(moves):
    """Random variable-window movements: plans never depend on the cache."""
    warm = make_slider("folding", WindowMode.VARIABLE)
    cold = make_slider("folding", WindowMode.VARIABLE)
    warm.initial_run([split_of(i) for i in range(4)])
    cold.initial_run([split_of(i) for i in range(4)])
    window = 4
    next_id = 4
    for added, removed in moves:
        removed = min(removed, window - 1)
        splits = [split_of(next_id + j) for j in range(added)]
        next_id += added
        window += added - removed
        clear_memos(cold)
        warm_result = warm.advance(splits, removed)
        cold_result = cold.advance(splits, removed)
        assert warm_result.plan.signature() == cold_result.plan.signature()
        assert warm_result.outputs == cold_result.outputs
