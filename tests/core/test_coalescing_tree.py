"""Unit tests for the coalescing contraction tree (§4.2)."""

import pytest

from repro.common.errors import WindowError
from repro.core.coalescing import CoalescingTree
from repro.mapreduce.combiners import SumCombiner
from repro.metrics import Phase

from tests.conftest import leaf_seq, root_total


def make_tree(**kwargs) -> CoalescingTree:
    return CoalescingTree(SumCombiner(), **kwargs)


def test_initial_run():
    tree = make_tree()
    assert root_total(tree.initial_run(leaf_seq([1, 2, 3]))) == 6


def test_appends_accumulate():
    tree = make_tree()
    tree.initial_run(leaf_seq([1, 2]))
    assert root_total(tree.advance(leaf_seq([3]), 0)) == 6
    assert root_total(tree.advance(leaf_seq([4, 5]), 0)) == 15


def test_remove_rejected():
    tree = make_tree()
    tree.initial_run(leaf_seq([1]))
    with pytest.raises(WindowError):
        tree.advance(leaf_seq([2]), removed=1)


def test_empty_append_is_noop():
    tree = make_tree()
    tree.initial_run(leaf_seq([1, 2]))
    assert root_total(tree.advance([], 0)) == 3


def test_append_cost_independent_of_history_size():
    tree = make_tree()
    tree.initial_run(leaf_seq(list(range(512))))
    before = tree.stats.combiner_invocations
    tree.advance(leaf_seq([1]), 0)
    assert tree.stats.combiner_invocations - before <= 2


def test_split_mode_defers_root_combine_to_background():
    tree = make_tree(split_mode=True)
    tree.initial_run(leaf_seq([1, 2, 3]))
    root = tree.advance(leaf_seq([10]), 0)
    assert root_total(root) == 16
    by_phase = tree.executor.telemetry.by_phase
    assert by_phase.get(Phase.BACKGROUND, 0.0) == 0.0
    tree.background_preprocess()
    assert by_phase.get(Phase.BACKGROUND, 0.0) > 0


def test_split_mode_correct_without_background():
    tree = make_tree(split_mode=True)
    tree.initial_run(leaf_seq([1]))
    total = 1
    for step in range(8):
        if step % 3 == 0:
            tree.background_preprocess()
        value = step + 2
        total += value
        from repro.core.partition import Partition

        leaf = Partition({"total": value, ("leaf", 4000 + step): 1})
        root = tree.advance([leaf], 0)
        assert root_total(root) == total


def test_split_mode_matches_reference():
    tree = make_tree(split_mode=True)
    tree.initial_run(leaf_seq([5, 6]))
    tree.background_preprocess()
    root = tree.advance(leaf_seq([7]), 0)
    assert root.entries == tree.reference_root().entries
