"""Unit tests for the rotating contraction tree (§4.1)."""

import pytest

from repro.common.errors import CombinerContractError, WindowError
from repro.core.rotating import RotatingTree
from repro.mapreduce.combiners import ListConcatCombiner, SumCombiner
from repro.metrics import Phase

from tests.conftest import leaf_seq, root_total


def make_tree(**kwargs) -> RotatingTree:
    return RotatingTree(SumCombiner(), **kwargs)


def test_initial_run_with_buckets():
    tree = make_tree(bucket_size=2)
    root = tree.initial_run(leaf_seq([1, 2, 3, 4, 5, 6, 7, 8]))
    assert root_total(root) == 36
    assert tree.num_buckets == 4
    assert tree.height == 2


def test_noncommutative_combiner_rejected():
    with pytest.raises(CombinerContractError):
        RotatingTree(ListConcatCombiner())


def test_initial_run_requires_whole_buckets():
    tree = make_tree(bucket_size=2)
    with pytest.raises(WindowError):
        tree.initial_run(leaf_seq([1, 2, 3]))


def test_initial_run_requires_nonempty():
    with pytest.raises(WindowError):
        make_tree().initial_run([])


def test_advance_must_be_fixed_width():
    tree = make_tree(bucket_size=1)
    tree.initial_run(leaf_seq([1, 2, 3, 4]))
    with pytest.raises(WindowError):
        tree.advance(leaf_seq([5]), removed=2)


def test_advance_must_be_whole_buckets():
    tree = make_tree(bucket_size=2)
    tree.initial_run(leaf_seq([1, 2, 3, 4]))
    with pytest.raises(WindowError):
        tree.advance(leaf_seq([5]), removed=1)


def test_rotation_replaces_oldest():
    """Figure 4(a): window=8, slide=2, bucket 4 replaces bucket 0."""
    tree = make_tree(bucket_size=2)
    tree.initial_run(leaf_seq([1, 2, 3, 4, 5, 6, 7, 8]))
    root = tree.advance(leaf_seq([10, 20]), removed=2)
    assert root_total(root) == 3 + 4 + 5 + 6 + 7 + 8 + 10 + 20
    assert root.entries == tree.reference_root().entries


def test_many_rotations_stay_correct():
    tree = make_tree(bucket_size=1)
    window = [1, 2, 3, 4, 5, 6, 7, 8]
    tree.initial_run(leaf_seq(window))
    counter = 0
    for step in range(20):
        new_value = 100 + step
        window = window[1:] + [new_value]
        from repro.core.partition import Partition

        leaf = Partition({"total": new_value, ("leaf", 1000 + counter): 1})
        counter += 1
        root = tree.advance([leaf], removed=1)
        assert root_total(root) == sum(window)


def test_update_cost_is_logarithmic():
    tree = make_tree(bucket_size=1)
    n = 64
    tree.initial_run(leaf_seq(list(range(n))))
    before = tree.stats.combiner_invocations
    tree.advance(leaf_seq([999]), removed=1)
    recomputed = tree.stats.combiner_invocations - before
    assert recomputed <= tree.height + 2


def test_split_mode_foreground_uses_precomputed_intermediate():
    tree = make_tree(bucket_size=2, split_mode=True)
    tree.initial_run(leaf_seq([1, 2, 3, 4, 5, 6, 7, 8]))
    tree.background_preprocess()
    telemetry = tree.executor.telemetry
    bg_work = telemetry.by_phase.get(Phase.BACKGROUND, 0.0)
    assert bg_work > 0

    fg_before = telemetry.total()
    root = tree.advance(leaf_seq([10, 20]), removed=2)
    fg_work = telemetry.total() - fg_before
    assert telemetry.by_phase[Phase.BACKGROUND] == bg_work
    assert root_total(root) == 3 + 4 + 5 + 6 + 7 + 8 + 10 + 20

    # Foreground with split processing beats the unsplit update path.
    unsplit = make_tree(bucket_size=2)
    unsplit.initial_run(leaf_seq([1, 2, 3, 4, 5, 6, 7, 8]))
    base_before = unsplit.executor.telemetry.total()
    unsplit.advance(leaf_seq([10, 20]), removed=2)
    unsplit_work = unsplit.executor.telemetry.total() - base_before
    assert fg_work < unsplit_work


def test_split_mode_stays_correct_across_rounds():
    tree = make_tree(bucket_size=1, split_mode=True)
    window = [1, 2, 3, 4]
    tree.initial_run(leaf_seq(window))
    from repro.core.partition import Partition

    for step in range(12):
        tree.background_preprocess()
        new_value = 50 + step
        window = window[1:] + [new_value]
        leaf = Partition({"total": new_value, ("leaf", 2000 + step): 1})
        root = tree.advance([leaf], removed=1)
        assert root_total(root) == sum(window)
        assert root.entries == tree.reference_root().entries


def test_split_mode_without_background_still_correct():
    """Background is best-effort; skipping it must not corrupt results."""
    tree = make_tree(bucket_size=1, split_mode=True)
    window = [1, 2, 3, 4]
    tree.initial_run(leaf_seq(window))
    from repro.core.partition import Partition

    for step in range(6):
        if step % 2 == 0:
            tree.background_preprocess()
        new_value = 70 + step
        window = window[1:] + [new_value]
        leaf = Partition({"total": new_value, ("leaf", 3000 + step): 1})
        root = tree.advance([leaf], removed=1)
        assert root_total(root) == sum(window)


def test_multi_bucket_slide():
    tree = make_tree(bucket_size=1)
    tree.initial_run(leaf_seq([1, 2, 3, 4]))
    root = tree.advance(leaf_seq([10, 20]), removed=2)
    assert root_total(root) == 3 + 4 + 10 + 20
