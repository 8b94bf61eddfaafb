"""Unit tests for the self-adjusting folding tree (§3.1)."""

import pytest

from repro.core.folding import FoldingTree
from repro.mapreduce.combiners import SumCombiner

from tests.conftest import leaf_seq, root_total


def make_tree(**kwargs) -> FoldingTree:
    return FoldingTree(SumCombiner(), **kwargs)


def test_initial_run_computes_root():
    tree = make_tree()
    root = tree.initial_run(leaf_seq([1, 2, 3]))
    assert root_total(root) == 6


def test_initial_run_height_is_ceil_log2():
    tree = make_tree()
    tree.initial_run(leaf_seq([1] * 5))
    assert tree.height == 3
    assert tree.capacity == 8


def test_initial_run_single_leaf():
    tree = make_tree()
    root = tree.initial_run(leaf_seq([7]))
    assert root_total(root) == 7
    assert tree.height == 0


def test_initial_run_empty_window():
    tree = make_tree()
    root = tree.initial_run([])
    assert not root
    assert tree.size == 0


def test_advance_before_initial_run_rejected():
    tree = make_tree()
    with pytest.raises(RuntimeError):
        tree.advance(leaf_seq([1]), 0)


def test_double_initial_run_rejected():
    tree = make_tree()
    tree.initial_run(leaf_seq([1]))
    with pytest.raises(RuntimeError):
        tree.initial_run(leaf_seq([2]))


def test_append_fills_void_nodes():
    tree = make_tree()
    tree.initial_run(leaf_seq([1, 2, 3]))  # capacity 4, one void
    root = tree.advance(leaf_seq([10]), 0)
    assert root_total(root) == 16
    assert tree.height == 2  # no unfold needed


def test_append_unfolds_when_full():
    tree = make_tree()
    tree.initial_run(leaf_seq([1, 2, 3, 4]))
    assert tree.height == 2
    root = tree.advance(leaf_seq([5]), 0)
    assert root_total(root) == 15
    assert tree.height == 3  # tree doubled (Figure 2, T2)


def test_remove_folds_left_half():
    tree = make_tree()
    tree.initial_run(leaf_seq([1, 2, 3, 4]))
    root = tree.advance([], removed=2)
    assert root_total(root) == 7
    assert tree.height == 1  # left half void -> fold (Figure 2, T3)


def test_figure2_scenario():
    """Replays the paper's Figure 2 slide sequence."""
    tree = make_tree()
    values = [1, 2, 4, 8, 16, 32, 64, 128]
    root = tree.initial_run(leaf_seq(values[:3]))  # T1: leaves 0..2
    assert root_total(root) == 7
    assert tree.height == 2

    # T2: add 2, remove 1 -> leaves 1..4
    root = tree.advance(leaf_seq(values[3:5]), removed=1)
    assert root_total(root) == 2 + 4 + 8 + 16
    assert tree.height == 3

    # T3: add 3, remove 3 -> leaves 4..7
    root = tree.advance(leaf_seq(values[5:8]), removed=3)
    assert root_total(root) == 16 + 32 + 64 + 128
    assert tree.height == 2


def test_remove_all_then_refill():
    tree = make_tree()
    tree.initial_run(leaf_seq([1, 2]))
    root = tree.advance([], removed=2)
    assert not root
    root = tree.advance(leaf_seq([5, 6]), 0)
    assert root_total(root) == 11


def test_remove_more_than_window_rejected():
    tree = make_tree()
    tree.initial_run(leaf_seq([1, 2]))
    with pytest.raises(ValueError):
        tree.advance([], removed=3)


def test_incremental_matches_reference_many_slides():
    tree = make_tree()
    values = list(range(1, 9))
    tree.initial_run(leaf_seq(values))
    slides = [(2, [9, 10]), (1, []), (0, [11, 12, 13]), (5, [14]), (3, [])]
    window = values[:]
    counter = 100
    for removed, new_values in slides:
        window = window[removed:] + new_values
        leaves = [
            _unique_leaf(v, i) for i, v in enumerate(new_values, start=counter)
        ]
        counter += len(new_values)
        root = tree.advance(leaves, removed=removed)
        assert root_total(root) == sum(window)
        assert root.entries == tree.reference_root().entries


def _unique_leaf(value, tag):
    from repro.core.partition import Partition

    return Partition({"total": value, ("leaf", tag): 1})


def test_incremental_work_less_than_rebuild_for_small_delta():
    """The defining property: delta work << window work.

    Uses aggregating leaves (one shared key) so per-node merge cost is
    constant and the update path costs O(log n) of the O(n) build.
    """
    from repro.core.partition import Partition

    big = [Partition({"total": v}) for v in range(256)]
    tree = make_tree()
    tree.initial_run(big)
    initial_work = tree.executor.telemetry.total()

    before = tree.executor.telemetry.total()
    tree.advance([Partition({"total": 999})], removed=1)
    delta_work = tree.executor.telemetry.total() - before
    # One slide should cost a tiny fraction of building the whole tree.
    assert delta_work < initial_work / 8


def test_rebuild_factor_shrinks_capacity():
    tree = make_tree(rebuild_factor=4)
    tree.initial_run(leaf_seq(list(range(64))))
    assert tree.capacity == 64
    tree.advance(leaf_seq([1]), removed=60)  # window now 5 leaves
    assert tree.capacity <= 4 * tree.size
    assert tree.space() == tree.recount()


def test_rebuild_factor_validation():
    with pytest.raises(ValueError):
        make_tree(rebuild_factor=1)


def test_stats_track_reuse():
    tree = make_tree()
    tree.initial_run(leaf_seq(list(range(16))))
    invocations_initial = tree.stats.combiner_invocations
    tree.advance(leaf_seq([99]), removed=1)
    delta_invocations = tree.stats.combiner_invocations - invocations_initial
    # Path recomputation only: about 2*height invocations, far below 15.
    assert delta_invocations <= 2 * (tree.height + 1)
