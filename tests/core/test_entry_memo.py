"""The entry memo: a merged key's entry hashes, remembered by value.

``combined_uid`` looks each ``(key, value)`` pair of a merged key up in a
bounded, two-generation memo before it hashes the pair.  A hit is the
hash of that pair's own bytes, so every uid is the integer it was without
the memo; these tests hold it to that where equality and encoding part
(``True`` / ``1``, ``1.0`` / ``1``), where an input is corrupt, and over
the combine kernel's pair strategy with a warm memo; they check the bound
and the promotion of an old-generation hit, and count that a steady
matrix slide makes a small share of the digests the delta counts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.apps.registry import APP_REGISTRY
from repro.core import partition as partition_module
from repro.core.partition import (
    _ENTRY_GENERATION,
    Partition,
    _EntryHashes,
    _fingerprint_entries,
    combine_partitions,
    first_unsound,
)
from repro.mapreduce.combiners import MaxCombiner, SumCombiner
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.conftest import count_digests
from tests.core.test_combine_kernel import PAIR_COMBINERS, pair_combines

#: Keys only one input holds, so that a combine of a few merged keys
#: takes the delta rather than the full re-hash.
PASSING = 30


def _inputs(left: dict, right: dict) -> list[Partition]:
    """``left`` and ``right`` with ``PASSING`` more keys dealt between them."""
    left, right = dict(left), dict(right)
    for i in range(PASSING):
        (left if i % 2 else right)[f"p{i}"] = i
    return [Partition(left), Partition(right)]


def _exact(pair) -> bool:
    key, value = pair
    items = key if type(key) is tuple else (key,)
    return type(value) is int and all(type(i) in (str, int) for i in items)


@pytest.mark.parametrize(
    "key, twin, values",
    [
        (True, 1, (2, 3)),  # a bool key equals the int
        ((True, "a"), (1, "a"), (2, 3)),  # ... and inside a tuple
        ((1.0, "a"), (1, "a"), (2, 3)),  # a float item equals the int
        (("row", ("a", 1)), ("row", ("a", 1)), (2, 3)),  # a nested tuple
        ("k", "k", (2.0, 3.0)),  # a float value equals the int
        ("k", "k", (True, True)),  # a bool value equals the int
    ],
)
def test_a_pair_equality_does_not_encode_bypasses_the_memo(
    entry_hashes, key, twin, values
):
    """Plant a wrong hash under the exact-typed pair each of the merged
    key's pairs equals: a lookup would read it.  The uid is the
    fingerprint all the same, and the memo gains no pair of the other
    types.  (``MaxCombiner``: a merge of two ``True`` is ``True``.)"""
    left_value, right_value = values
    merged = max(values)
    for value in (left_value, right_value, merged):
        entry_hashes.young[(twin, int(value))] = 0xBAD
    planted = dict(entry_hashes.young)
    combined = combine_partitions(
        _inputs({key: left_value}, {key: right_value}), MaxCombiner()
    )
    assert combined.entries[key] == merged
    assert combined.uid == _fingerprint_entries(combined.entries)
    assert first_unsound([combined]) is None
    assert entry_hashes.young == planted and not entry_hashes.old


@pytest.mark.parametrize("key", ["m", 7, ("row", "m", 3), ()])
def test_an_exact_pair_is_remembered_and_read_back(monkeypatch, entry_hashes, key):
    """Keys of each kind the memo takes: the delta's three pairs go in
    at the first combine, and the same combine again makes no digest."""
    inputs = _inputs({key: 1}, {key: 10})
    first = combine_partitions(inputs, SumCombiner())
    assert set(entry_hashes.young) == {(key, 1), (key, 10), (key, 11)}
    assert all(map(_exact, entry_hashes.young))
    digests, keyings = count_digests(monkeypatch)
    again = combine_partitions(inputs, SumCombiner())
    assert digests == [] and keyings == []
    assert again.uid == first.uid == _fingerprint_entries(again.entries)


def test_a_corrupt_input_read_from_the_memo_is_as_stale_as_without_it(
    monkeypatch, entry_hashes
):
    """An input whose entry was flipped to a value whose pair *is* in the
    memo, under its old uid: the delta reads that pair's hash, which is
    the hash of the bytes the input now holds -- the uid a cold memo
    gives, and it still fails verification."""
    clean, other = _inputs({"m": 1}, {"m": 10})
    combine_partitions(
        _inputs({"m": 4}, {"m": 5}), SumCombiner()
    )  # puts ("m", 4), ("m", 5) and ("m", 9) in the memo
    stale = Partition(dict(clean.entries, m=4), uid=clean.uid)
    assert ("m", 4) in entry_hashes.young
    assert first_unsound([stale]) is stale

    warm = combine_partitions([stale, other], SumCombiner())
    monkeypatch.setattr(partition_module, "_ENTRY_HASHES", _EntryHashes())
    cold = combine_partitions([stale, other], SumCombiner())
    assert warm.entries == cold.entries and warm.entries["m"] == 14
    assert warm.uid == cold.uid
    assert first_unsound([warm]) is warm


def _distinct_pairs(start: int, merged: int) -> list[Partition]:
    """Two inputs sharing ``merged`` keys from ``start`` on: ``3 *
    merged`` pairs the memo has not seen, on the delta path."""
    left = {f"f{start + i}": 1 for i in range(merged)}
    right = {f"f{start + i}": 2 for i in range(merged)}
    for i in range(3 * merged + 1):
        (left if i % 2 else right)[f"q{i}"] = 0
    return [Partition(left), Partition(right)]


def test_the_memo_is_bounded_and_an_old_hit_is_promoted(monkeypatch, entry_hashes):
    """Two generations of ``_ENTRY_GENERATION`` pairs: ``young`` becomes
    ``old`` when full and the old ``old`` is dropped, so the memo never
    holds more than twice that; a pair found in ``old`` costs no digest
    and moves to ``young``."""
    remembered = _inputs({"m": 1}, {"m": 10})
    combine_partitions(remembered, SumCombiner())
    pairs = {("m", 1), ("m", 10), ("m", 11)}
    assert pairs <= set(entry_hashes.young)

    start, held = 0, []
    while not pairs <= set(entry_hashes.old):  # pushed into ``old``
        assert start < 3 * _ENTRY_GENERATION, "young never turned old"
        combine_partitions(_distinct_pairs(start, 500), SumCombiner())
        start += 500
        held.append((len(entry_hashes.young), len(entry_hashes.old)))
    assert len(entry_hashes.old) == _ENTRY_GENERATION

    digests, _ = count_digests(monkeypatch)
    again = combine_partitions(remembered, SumCombiner())
    assert digests == []  # every pair from ``old``, none hashed
    assert again.uid == _fingerprint_entries(again.entries)
    assert pairs <= set(entry_hashes.young) and not pairs & set(entry_hashes.old)

    for _ in range(6):  # two more rotations drop what was never read again
        combine_partitions(_distinct_pairs(start, 500), SumCombiner())
        start += 500
        held.append((len(entry_hashes.young), len(entry_hashes.old)))
    assert ("f0", 1) not in entry_hashes.young and ("f0", 1) not in entry_hashes.old
    assert all(young < _ENTRY_GENERATION for young, _ in held)
    assert all(old <= _ENTRY_GENERATION for _, old in held)
    assert max(map(sum, held)) <= 2 * _ENTRY_GENERATION


@settings(max_examples=200, deadline=None)
@given(case=pair_combines())
def test_a_warm_memo_leaves_every_pair_combine_uid_the_fingerprint(case):
    """The combine kernel's pair strategy, each combine run twice on a
    memo that stays warm across examples (one test, one memo): the uid
    is the fresh fingerprint of the entries both times (the shared
    empty partition's uid is symbolic; ``first_unsound`` knows)."""
    name, partitions, _, _ = case
    kind = PAIR_COMBINERS[name][0]
    first = combine_partitions(partitions, kind())
    again = combine_partitions(partitions, kind())
    assert again.entries == first.entries and again.uid == first.uid
    assert first_unsound([again]) is None
    if again:
        assert again.uid == _fingerprint_entries(again.entries)


def test_a_steady_matrix_slide_makes_few_of_the_digests_the_delta_counts(
    monkeypatch,
):
    """The rotating tree over a fixed window of matrix splits, in split
    mode: a slide is a background pass, then an advance.  Its off-path
    siblings are combined again slide after slide, so the pairs of their
    merged keys recur.  Over eight steady slides, every ``"pent"`` digest
    made -- fresh leaves included -- is at most a quarter of the three a
    merged key the fingerprint delta counts (one a pair)."""
    spec = APP_REGISTRY["matrix"]
    mode = WindowMode.FIXED
    config = SliderConfig(
        mode=mode,
        tree="rotating",
        bucket_size=2,
        split_mode=True,
        execution_backend="inprocess",  # every digest in this process
        workers=1,
    )
    engine = Slider(spec.make_job(), mode, config=config)
    splits = spec.make_splits(40 + 2 * 12, 7, 0)
    counted = [0]
    real = partition_module.combined_uid

    def counting(inputs, merged, delta_digests, entries):
        if delta_digests < len(entries):  # the delta, not the re-hash
            counted[0] += delta_digests - len(inputs)
        return real(inputs, merged, delta_digests, entries)

    try:
        engine.initial_run(splits[:40])
        for slide in range(12):
            if slide == 4:  # warmed up: count from here
                monkeypatch.setattr(partition_module, "combined_uid", counting)
                digests, _ = count_digests(monkeypatch)
            engine.background_preprocess()
            engine.advance(splits[40 + 2 * slide : 42 + 2 * slide], 2)
        assert counted[0] > 8 * 3_000  # thousands of merged keys a slide
        assert digests.count("pent") <= 0.25 * counted[0]
        engine.verify_outputs()
    finally:
        engine.close()
