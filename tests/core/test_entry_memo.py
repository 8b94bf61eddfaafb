"""The entry memo: a combine's entry hashes, remembered by value.

``combined_uid`` looks each ``(key, value)`` pair it hashes -- a merged
key's pairs on the fingerprint delta, every entry when it hashes afresh --
up in a bounded, two-generation memo before it hashes the pair.  A hit is
the hash of that pair's own bytes, so every uid is the integer it was
without the memo; these tests hold it to that where equality and encoding
part (``True`` / ``1``, ``1.0`` / ``1``), on both branches, where an
input is corrupt, and over the combine kernel's pair strategy with a warm
memo; they check the bound, the promotion of an old-generation hit and
the copy a str key is stored as, and count that a steady matrix slide
makes a small share of the digests the delta counts, that a steady hct
slide makes a small share of the entries its fresh combines build, and
that kmeans' vector values stay off the memo.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.apps.registry import APP_REGISTRY
from repro.core.identity import ENTRY_GENERATION
from repro.core import partition as partition_module
from repro.core.partition import (
    Partition,
    _fingerprint_entries,
    combine_partitions,
    first_unsound,
)
from repro.mapreduce.combiners import MaxCombiner, SumCombiner
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.conftest import count_digests, held_pairs
from tests.core.test_combine_kernel import PAIR_COMBINERS, pair_combines

#: Keys only one input holds, so that a combine of a few merged keys
#: takes the delta rather than the full re-hash.
PASSING = 30


def _sizes(memo) -> tuple[int, int]:
    """Pairs the young and the old generation hold."""
    return len(held_pairs(memo.young)), len(held_pairs(memo.old))


def _inputs(left: dict, right: dict, passing: int = PASSING) -> list[Partition]:
    """``left`` and ``right`` with ``passing`` more keys dealt between them:
    none, and a combine that merges every key hashes its result afresh."""
    left, right = dict(left), dict(right)
    for i in range(passing):
        (left if i % 2 else right)[f"p{i}"] = i
    return [Partition(left), Partition(right)]


def _exact(pair) -> bool:
    key, value = pair
    items = key if type(key) is tuple else (key,)
    return type(value) is int and all(type(i) in (str, int) for i in items)


#: (key, an exact-typed key it equals, the two inputs' values): pairs
#: whose equality does not fix their bytes.
UNENCODED_TWINS = [
    (True, 1, (2, 3)),  # a bool key equals the int
    ((True, "a"), (1, "a"), (2, 3)),  # ... and inside a tuple
    ((1.0, "a"), (1, "a"), (2, 3)),  # a float item equals the int
    (("row", ("a", 1)), ("row", ("a", 1)), (2, 3)),  # a nested tuple
    ("k", "k", (2.0, 3.0)),  # a float value equals the int
    ("k", "k", (True, True)),  # a bool value equals the int
]


def _planted_twins_are_not_read(memo, key, twin, values, passing: int) -> None:
    """Plant a wrong hash under the exact-typed pair each of the merged
    key's pairs equals, and combine: the uid is the fingerprint all the
    same, and the memo gains no pair of the other types.  (``MaxCombiner``:
    a merge of two ``True`` is ``True``.)"""
    left_value, right_value = values
    merged = max(values)
    for value in (left_value, right_value, merged):
        memo.young.setdefault(twin, {})[int(value)] = 0xBAD
    planted = held_pairs(memo.young)
    combined = combine_partitions(
        _inputs({key: left_value}, {key: right_value}, passing), MaxCombiner()
    )
    assert combined.entries[key] == merged
    assert combined.uid == _fingerprint_entries(combined.entries)
    assert first_unsound([combined]) is None
    assert held_pairs(memo.young) == planted and not memo.old


@pytest.mark.parametrize("key, twin, values", UNENCODED_TWINS)
def test_a_pair_equality_does_not_encode_bypasses_the_memo(
    entry_hashes, key, twin, values
):
    """On the delta: a lookup of a merged key's pair would read the plant."""
    _planted_twins_are_not_read(entry_hashes, key, twin, values, PASSING)


@pytest.mark.parametrize("key, twin, values", UNENCODED_TWINS)
def test_a_fresh_fingerprint_bypasses_the_memo_where_equality_does_not_encode(
    entry_hashes, key, twin, values
):
    """Afresh (the one key merges, no key passes through): the result's
    entry goes to the entry kernel, not to the memo."""
    _planted_twins_are_not_read(entry_hashes, key, twin, values, 0)


def _remembered_and_read_back(monkeypatch, memo, key, passing: int) -> set:
    """Combine twice: the second combine makes no digest and gets the
    first's uid.  Returns the pairs the first put in."""
    inputs = _inputs({key: 1}, {key: 10}, passing)
    first = combine_partitions(inputs, SumCombiner())
    remembered = set(held_pairs(memo.young))
    assert all(map(_exact, remembered))
    digests, keyings = count_digests(monkeypatch)
    again = combine_partitions(inputs, SumCombiner())
    assert digests == [] and keyings == []
    assert again.uid == first.uid == _fingerprint_entries(again.entries)
    return remembered


@pytest.mark.parametrize("key", ["m", 7, ("row", "m", 3), ()])
def test_an_exact_pair_is_remembered_and_read_back(monkeypatch, entry_hashes, key):
    """Keys of each kind the memo takes: the delta's three pairs go in."""
    remembered = _remembered_and_read_back(monkeypatch, entry_hashes, key, PASSING)
    assert remembered == {(key, 1), (key, 10), (key, 11)}


@pytest.mark.parametrize("key", ["m", 7, ("row", "m", 3), ()])
def test_a_fresh_fingerprint_remembers_each_entry_and_reads_it_back(
    monkeypatch, entry_hashes, key
):
    """Every key merges, so the result is hashed afresh: its entry goes in."""
    remembered = _remembered_and_read_back(monkeypatch, entry_hashes, key, 0)
    assert remembered == {(key, 11)}


def test_a_str_key_is_stored_as_a_copy_and_a_tuple_key_as_it_is(entry_hashes):
    """A map task interns its str keys, so the memo keeps an equal str of
    its own, one a key for all its values.  A tuple key, never interned,
    is kept as it is."""
    word = "".join(("gone", "-key"))
    pair_key = ("row", "".join(("co", "l")))
    for value in (1, 2):
        entry_hashes.put(word, value, value)
        entry_hashes.put(pair_key, value, value)
    (copy,) = (key for key in entry_hashes.young if type(key) is str)
    assert copy == word and copy is not word
    (kept,) = (key for key in entry_hashes.young if type(key) is tuple)
    assert kept is pair_key
    assert held_pairs(entry_hashes.young) == {
        (word, 1): 1, (word, 2): 2, (pair_key, 1): 1, (pair_key, 2): 2
    }
    assert entry_hashes.size == 4


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
    assert ("m", 4) in held_pairs(entry_hashes.young)
    assert first_unsound([stale]) is stale

    warm = combine_partitions([stale, other], SumCombiner())
    monkeypatch.setattr(entry_hashes, "young", {})
    monkeypatch.setattr(entry_hashes, "old", {})
    monkeypatch.setattr(entry_hashes, "size", 0)
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
    """Two generations of ``ENTRY_GENERATION`` pairs: ``young`` becomes
    ``old`` when full and the old ``old`` is dropped, so the memo never
    holds more than twice that; a pair found in ``old`` costs no digest
    and moves to ``young``."""
    remembered = _inputs({"m": 1}, {"m": 10})
    combine_partitions(remembered, SumCombiner())
    pairs = {("m", 1), ("m", 10), ("m", 11)}
    assert pairs <= set(held_pairs(entry_hashes.young))

    start, held = 0, []
    while not pairs <= set(held_pairs(entry_hashes.old)):  # pushed into ``old``
        assert start < 3 * ENTRY_GENERATION, "young never turned old"
        combine_partitions(_distinct_pairs(start, 500), SumCombiner())
        start += 500
        held.append(_sizes(entry_hashes))
    assert len(held_pairs(entry_hashes.old)) == ENTRY_GENERATION

    digests, _ = count_digests(monkeypatch)
    again = combine_partitions(remembered, SumCombiner())
    assert digests == []  # every pair from ``old``, none hashed
    assert again.uid == _fingerprint_entries(again.entries)
    young, old = held_pairs(entry_hashes.young), held_pairs(entry_hashes.old)
    assert pairs <= set(young) and not pairs & set(old)

    for _ in range(6):  # two more rotations drop what was never read again
        combine_partitions(_distinct_pairs(start, 500), SumCombiner())
        start += 500
        held.append(_sizes(entry_hashes))
    young, old = held_pairs(entry_hashes.young), held_pairs(entry_hashes.old)
    assert ("f0", 1) not in young and ("f0", 1) not in old
    assert all(young < ENTRY_GENERATION for young, _ in held)
    assert all(old <= ENTRY_GENERATION for _, old in held)
    assert max(map(sum, held)) <= 2 * ENTRY_GENERATION


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


def _combine_digests(monkeypatch, app: str, window: int, warm: int, counted: int):
    """The registry ``app`` on a folding tree over a variable window of
    ``window`` splits, one in and one out a slide: after ``warm``
    slides, the ``"pent"`` digests made inside ``combined_uid`` over
    ``counted`` slides, the entries the combines built, and how many of
    those combines hashed afresh."""
    spec = APP_REGISTRY[app]
    mode = WindowMode.VARIABLE
    config = SliderConfig(
        mode=mode, tree="folding", execution_backend="inprocess", workers=1
    )
    engine = Slider(spec.make_job(), mode, config=config)
    splits = spec.make_splits(window + warm + counted, 7, 0)
    made, built, fresh = [0], [0], [0]
    real = partition_module.combined_uid
    digests: list = []

    def counting(inputs, merged, delta_digests, entries):
        before = len(digests)
        uid = real(inputs, merged, delta_digests, entries)
        made[0] += digests[before:].count("pent")
        built[0] += len(entries)
        fresh[0] += delta_digests >= len(entries)
        return uid

    try:
        engine.initial_run(splits[:window])
        for slide in range(warm + counted):
            if slide == warm:
                monkeypatch.setattr(partition_module, "combined_uid", counting)
                digests = count_digests(monkeypatch)[0]
            engine.advance([splits[window + slide]], 1)
        engine.verify_outputs()
    finally:
        engine.close()
    return made[0], built[0], fresh[0]


def test_a_steady_hct_advance_reads_its_fresh_entry_hashes_from_the_memo(
    monkeypatch,
):
    """hct's partitions are small and merge almost every key, so its
    combines hash their entries afresh -- through the entry memo, where
    the ``(key, count)`` pairs of the last few thousand lookups are.
    Without the memo every entry built is a digest."""
    made, built, fresh = _combine_digests(monkeypatch, "hct", 40, 64, 16)
    assert fresh >= 16 * 10  # every slide rebuilds a path of fresh combines
    assert built > 16 * 100
    assert made <= 0.25 * built


def test_kmeans_vector_valued_fresh_fingerprints_make_one_digest_an_entry(
    monkeypatch, entry_hashes
):
    """A vector value is never by value: each entry a kmeans combine
    builds is hashed by the entry kernel, one digest apiece, and the
    memo stays empty."""
    made, built, fresh = _combine_digests(monkeypatch, "kmeans", 8, 4, 8)
    assert fresh and built
    assert made == built
    assert not entry_hashes.young and not entry_hashes.old
