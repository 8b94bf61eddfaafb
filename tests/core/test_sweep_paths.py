"""The restore sweep's two paths to a reducer's fingerprints.

``first_unsound`` folds a reducer whose keys are all flat tuples (exact
``str`` / ``int`` items) and whose values are all exact ``int``s in one
flattened pass (``xor_flat_entry_hashes``: each distinct pair digested
once, every partition folded by ``numpy``); any other reducer takes
``xor_entry_hashes``' loop.  These tests run both paths on the same
partitions -- the loop by patching the flat path out -- and hold them to
the same folds, the same verdict and the same digest count: where flat
keys meet ``bool`` items, subclasses, ``1.0`` for ``1`` and nested keys,
over empty partitions and the shared empty partition's symbolic uid,
with equal pairs held across partitions, and after a single-entry
mutation.  The sweep proves only a uid that was made (it makes a missing
one from what the partition holds), so a partition's uid is read before
it is mutated.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.identity import entry_hash, xor_entry_hashes, xor_flat_entry_hashes
from repro.core import partition as partition_module
from repro.core.partition import Partition, _adopt, first_unsound
from tests.conftest import count_digests


class Text(str):
    """A ``str`` subclass: equal to its text, and encoded as it."""


def by_loop(partitions: list[Partition]) -> Partition | None:
    """``first_unsound`` with the flat path patched out: every reducer
    takes ``xor_entry_hashes``' loop."""
    flat_off = mock.patch.object(
        partition_module, "xor_flat_entry_hashes", return_value=None
    )
    with flat_off:
        return first_unsound(partitions)


def assert_same_paths(partitions: list[Partition], flat: bool) -> Partition | None:
    """Both paths' verdict on ``partitions``, the same object; the flat
    path's folds are the loop's wherever it takes the reducer, and it
    takes it exactly when ``flat``."""
    mappings = [p.entries for p in partitions]
    folded = xor_flat_entry_hashes(mappings, salt="pent")
    assert (folded is not None) == flat
    if flat:
        assert folded == xor_entry_hashes(mappings, salt="pent")
    verdict = first_unsound(partitions)
    assert verdict is by_loop(partitions)
    return verdict


@pytest.mark.parametrize(
    "rows, flat",
    [
        ([{("a", 1): 2, ("b", 2): 3}, {("a", 1): 2}], True),
        ([{("a", 1): 2}, {("b", True): 3}], False),  # a bool item
        ([{("a", 1): 2}, {(Text("b"), 2): 3}], False),  # a str subclass item
        ([{("a", 1): 2}, {(1.0, "c"): 4}], False),  # a float item
        ([{("a", 1): 1}, {("b", 2): 1.0}], False),  # 1.0 for 1
        ([{("a", 1): 2}, {("b", 2): True}], False),  # True for 1
        ([{(("a", 1), "b"): 2}], False),  # a nested tuple key
        ([{("a", 1): 2}, {"b": 3}], False),  # flat and str keys: the loop
        ([{("a", 1): 2}, {7: 3}], False),  # ... and an int key
        ([{"a": 1, "b": 2}], False),  # a str-keyed reducer
        ([{(): 2, ("a",): 3}], True),  # the empty tuple is flat
        ([{}, {}, {("a", 1): 2}, {}], True),
        ([{}, {}], True),
        ([], True),
    ],
)
def test_both_paths_fold_and_judge_alike(rows, flat):
    partitions = [Partition(row) for row in rows]
    assert assert_same_paths(partitions, flat) is None
    # The first non-empty partition claiming another uid fails on both.
    for i, p in enumerate(partitions):
        if p:
            partitions[i] = _adopt(dict(p.entries), p.uid ^ 1)
            assert assert_same_paths(partitions, flat) is partitions[i]
            break


def test_the_shared_empty_partition_passes_only_over_no_entries():
    empty = Partition.empty()
    fresh = Partition({})
    assert empty.uid != fresh.uid  # the shared one's uid is symbolic
    held = Partition({("a", 1): 2})
    assert assert_same_paths([empty, held, fresh, empty], True) is None
    claims = _adopt({("a", 1): 2}, empty.uid)
    assert assert_same_paths([empty, held, claims], True) is claims


@pytest.mark.parametrize(
    "mutate, loop_only",
    [
        (lambda key, value: (key, value + 1), False),
        (lambda key, value: (key, True), True),  # 1 -> True
        (lambda key, value: ((key[0], True), value), True),  # an item 1 -> True
    ],
    ids=["plus-one", "value-to-true", "item-to-bool"],
)
def test_a_single_entry_mutation_is_caught_at_the_same_partition(mutate, loop_only):
    rows = [
        {("a", 1): 1, ("b", 1): 2},
        {("a", 1): 1, ("c", 1): 1},  # equal pairs held across partitions
        {("b", 1): 2, ("a", 1): 1, ("d", 1): 1},
        {},
    ]
    partitions = [Partition(row) for row in rows]
    assert all(p.uid for p in partitions)  # made before the mutation
    victim = partitions[2]
    key = ("a", 1)
    new_key, new_value = mutate(key, victim.entries.pop(key))
    victim.entries[new_key] = new_value
    assert assert_same_paths(partitions, not loop_only) is victim


def test_equal_pairs_across_partitions_are_digested_once(monkeypatch, length_terms):
    """Equal pairs under distinct key objects, held by several partitions:
    one ``"pent"`` digest a distinct pair, and one ``"pfp"`` a distinct
    length, on either path."""
    rows = [
        {("row", i): i % 3 for i in range(8)},
        {("row", i): i % 3 for i in range(4, 12)},
        {("row", i): i % 3 for i in range(0, 12, 2)},
    ]
    partitions = [Partition(row) for row in rows]
    distinct = {pair for row in rows for pair in row.items()}
    assert len(distinct) < sum(map(len, rows))
    assert xor_flat_entry_hashes([p.entries for p in partitions], salt="pent")
    digests, _ = count_digests(monkeypatch)
    for verdict in (first_unsound, by_loop):
        length_terms.clear()
        digests.clear()
        assert verdict(partitions) is None
        assert digests.count("pent") == len(distinct)
        assert digests.count("pfp") == len({len(row) for row in rows})


ITEMS = st.sampled_from(["a", "b", "", "é", 0, 1, 2, -7, 2**70])
FLAT_KEYS = st.lists(ITEMS, max_size=3).map(tuple)
ROWS = st.lists(
    st.dictionaries(FLAT_KEYS, st.integers(-2, 3), max_size=6), max_size=5
)


def _subclassed(item):
    """An equal object of a subclass: ``True`` for ``1``, a ``Text`` for
    a str, or ``None`` where there is none."""
    if type(item) is str:
        return Text(item)
    return True if item == 1 else None


@settings(max_examples=200, deadline=None)
@given(
    rows=ROWS,
    symbolic=st.booleans(),
    kind=st.sampled_from(["plus-one", "value-to-true", "item-subclass"]),
    where=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 3)),
)
def test_drawn_flat_reducers_take_the_flat_path_to_the_loops_verdict(
    rows, symbolic, kind, where
):
    """Drawn flat reducers (small alphabets, so pairs recur across
    partitions; empty partitions; the shared empty partition among them)
    fold alike on both paths and pass; then one entry is mutated, and
    both paths name the same partition: the mutated one wherever the
    entry's bytes changed, none where they did not (a ``Text`` item
    encodes as its text)."""
    partitions = [Partition(row) for row in rows]
    if symbolic:
        partitions.insert(len(partitions) // 2, Partition.empty())
    assert assert_same_paths(partitions, True) is None  # makes every uid
    held = [p for p in partitions if p]
    if not held:
        return
    victim = held[where[0] % len(held)]
    keys = list(victim.entries)
    key = keys[where[1] % len(keys)]
    value = victim.entries[key]
    if kind == "plus-one":
        new_key, new_value = key, value + 1
    elif kind == "value-to-true":
        # The partition is re-made holding 1 there first, so True is equal.
        victim.entries[key] = value = 1
        victim._uid = partition_module._fingerprint_entries(victim.entries)
        new_key, new_value = key, True
    else:
        swaps = [(i, _subclassed(item)) for i, item in enumerate(key)]
        swaps = [(i, twin) for i, twin in swaps if twin is not None]
        if not swaps:
            return
        i, twin = swaps[where[2] % len(swaps)]
        new_key, new_value = (*key[:i], twin, *key[i + 1 :]), value
    assert new_key == key and (new_value == value or kind == "plus-one")
    del victim.entries[key]
    victim.entries[new_key] = new_value
    changed = entry_hash(new_key, new_value, salt="pent") != entry_hash(
        key, value, salt="pent"
    )
    # A bool or ``Text`` item, or a True value, takes the reducer to the loop.
    verdict = assert_same_paths(partitions, kind == "plus-one")
    assert verdict is (victim if changed else None)
