"""Property-based tests: every tree must match batch recomputation.

The fundamental correctness invariant of self-adjusting contraction trees
is output equivalence: after any legal sequence of slides, the root equals
the non-incremental combination of the current window's leaves.  Hypothesis
drives arbitrary slide sequences against each variant.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coalescing import CoalescingTree
from repro.core.folding import FoldingTree
from repro.core.partition import Partition, combine_partitions
from repro.core.randomized import RandomizedFoldingTree
from repro.core.rotating import RotatingTree
from repro.core.strawman import StrawmanTree
from repro.mapreduce.combiners import MaxCombiner, SumCombiner


def _leaf(tag: int, value: int) -> Partition:
    # A couple of shared keys plus one unique key: exercises both merge
    # paths (real merges and single-value pass-through).
    return Partition({"sum": value, "tag": value % 3, ("u", tag): value})


def _expected(window: list[tuple[int, int]]) -> Partition:
    return combine_partitions([_leaf(t, v) for t, v in window], SumCombiner())


# A slide: (number of leaves to remove, values to append).
slides = st.lists(
    st.tuples(st.integers(0, 6), st.lists(st.integers(-50, 50), max_size=6)),
    max_size=12,
)
initial_values = st.lists(st.integers(-50, 50), max_size=16)


def _drive(tree, initial: list[int], slide_seq) -> None:
    counter = len(initial)
    window = list(enumerate(initial))
    tree.initial_run([_leaf(t, v) for t, v in window])
    for removed, added_values in slide_seq:
        removed = min(removed, len(window))
        added = [(counter + i, v) for i, v in enumerate(added_values)]
        counter += len(added_values)
        window = window[removed:] + added
        root = tree.advance([_leaf(t, v) for t, v in added], removed)
        expected = _expected(window)
        assert root.entries == expected.entries, (
            f"divergence after remove={removed} add={added_values}"
        )


@settings(max_examples=60, deadline=None)
@given(initial=initial_values, slide_seq=slides)
def test_folding_tree_matches_batch(initial, slide_seq):
    _drive(FoldingTree(SumCombiner()), initial, slide_seq)


@settings(max_examples=40, deadline=None)
@given(initial=initial_values, slide_seq=slides)
def test_folding_tree_with_rebuild_matches_batch(initial, slide_seq):
    _drive(FoldingTree(SumCombiner(), rebuild_factor=4), initial, slide_seq)


@settings(max_examples=60, deadline=None)
@given(initial=initial_values, slide_seq=slides, seed=st.integers(0, 1000))
def test_randomized_tree_matches_batch(initial, slide_seq, seed):
    _drive(RandomizedFoldingTree(SumCombiner(), seed=seed), initial, slide_seq)


@settings(max_examples=40, deadline=None)
@given(initial=initial_values, slide_seq=slides)
def test_strawman_tree_matches_batch(initial, slide_seq):
    _drive(StrawmanTree(SumCombiner()), initial, slide_seq)


@settings(max_examples=60, deadline=None)
@given(
    window_buckets=st.integers(1, 8),
    bucket_size=st.integers(1, 3),
    rounds=st.integers(0, 8),
    values=st.data(),
    split_mode=st.booleans(),
)
def test_rotating_tree_matches_batch(
    window_buckets, bucket_size, rounds, values, split_mode
):
    width = window_buckets * bucket_size
    counter = 0

    def draw_leaves(n):
        nonlocal counter
        out = []
        for _ in range(n):
            value = values.draw(st.integers(-50, 50))
            out.append((counter, value))
            counter += 1
        return out

    window = draw_leaves(width)
    tree = RotatingTree(
        SumCombiner(), bucket_size=bucket_size, split_mode=split_mode
    )
    tree.initial_run([_leaf(t, v) for t, v in window])
    for round_index in range(rounds):
        if split_mode and round_index % 2 == 0:
            tree.background_preprocess()
        added = draw_leaves(bucket_size)
        window = window[bucket_size:] + added
        root = tree.advance([_leaf(t, v) for t, v in added], bucket_size)
        assert root.entries == _expected(window).entries


@settings(max_examples=60, deadline=None)
@given(
    initial=initial_values,
    appends=st.lists(st.lists(st.integers(-50, 50), max_size=5), max_size=8),
    split_mode=st.booleans(),
)
def test_coalescing_tree_matches_batch(initial, appends, split_mode):
    counter = len(initial)
    window = list(enumerate(initial))
    tree = CoalescingTree(SumCombiner(), split_mode=split_mode)
    tree.initial_run([_leaf(t, v) for t, v in window])
    for i, added_values in enumerate(appends):
        if split_mode and i % 2 == 1:
            tree.background_preprocess()
        added = [(counter + j, v) for j, v in enumerate(added_values)]
        counter += len(added_values)
        window = window + added
        root = tree.advance([_leaf(t, v) for t, v in added], 0)
        assert root.entries == _expected(window).entries


@settings(max_examples=40, deadline=None)
@given(initial=initial_values, slide_seq=slides)
def test_folding_tree_with_max_combiner(initial, slide_seq):
    """A second combiner family: max is associative+commutative but not
    invertible — exactly the case where contraction trees shine over
    inverse-function approaches."""
    counter = len(initial)
    window = list(enumerate(initial))
    tree = FoldingTree(MaxCombiner())
    tree.initial_run([Partition({"m": v}) for _, v in window])
    for removed, added_values in slide_seq:
        removed = min(removed, len(window))
        added = [(counter + i, v) for i, v in enumerate(added_values)]
        counter += len(added_values)
        window = window[removed:] + added
        root = tree.advance([Partition({"m": v}) for _, v in added], removed)
        if window:
            assert root.get("m") == max(v for _, v in window)
        else:
            assert not root


@settings(max_examples=30, deadline=None)
@given(initial=initial_values, slide_seq=slides, seed=st.integers(0, 100))
def test_randomized_tree_height_reasonable(initial, slide_seq, seed):
    """Expected height stays within a small multiple of log2(window)."""
    import math

    counter = len(initial)
    window = list(enumerate(initial))
    tree = RandomizedFoldingTree(SumCombiner(), seed=seed)
    tree.initial_run([_leaf(t, v) for t, v in window])
    for removed, added_values in slide_seq:
        removed = min(removed, len(window))
        added = [(counter + i, v) for i, v in enumerate(added_values)]
        counter += len(added_values)
        window = window[removed:] + added
        tree.advance([_leaf(t, v) for t, v in added], removed)
        if len(window) >= 2:
            bound = 6 * (math.log2(len(window)) + 1) + 8
            assert tree.height <= bound


@pytest.mark.parametrize(
    "tree", [FoldingTree, RandomizedFoldingTree, StrawmanTree], ids=lambda t: t.__name__
)
def test_a_negative_removal_is_rejected(tree):
    instance = tree(SumCombiner())
    instance.initial_run([Partition({"a": 1})])
    with pytest.raises(ValueError, match="removed must be non-negative"):
        instance.advance([], -1)


@pytest.mark.parametrize("probability", [0.0, 1.0])
def test_a_boundary_probability_outside_the_open_unit_interval_is_rejected(
    probability,
):
    with pytest.raises(ValueError, match="must lie in"):
        RandomizedFoldingTree(SumCombiner(), boundary_probability=probability)


def test_a_non_positive_bucket_size_is_rejected():
    with pytest.raises(ValueError, match="bucket_size must be positive"):
        RotatingTree(SumCombiner(), bucket_size=0)
