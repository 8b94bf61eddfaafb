"""A combined partition's uid, derived from its inputs' uids, is the
fingerprint of its entries.

``combine_partitions`` does not hash every entry of its result: keys only
one input held pass through unhashed, and the result's uid is worked out
from the inputs' uids.  These tests hold that uid to the full re-hash
(``_fingerprint_entries``), on both sides of the rule that picks between
the two and at it.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.hashing import encode_key, stable_hash
from repro.core.partition import (
    Partition,
    _fingerprint_entries,
    combine_partitions,
    first_unsound,
)
from repro.mapreduce.combiners import (
    ListConcatCombiner,
    SetUnionCombiner,
    SumCombiner,
    VectorSumCombiner,
)
from tests.conftest import count_digests

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)

KEY_FAMILIES = {
    "str": lambda i: f"k{i}",
    "tuple-of-str": lambda i: ("row", f"c{i}"),
    "int": lambda i: i * 7 - 40,
}


def _values(kind, dim):
    return {
        "int": st.integers(-1000, 1000),
        "float": finite,
        "vector": st.tuples(
            st.integers(1, 50),
            st.lists(finite, min_size=dim, max_size=dim).map(tuple),
        ),
        "sequence": st.lists(st.integers(0, 9), max_size=3).map(tuple),
        "frozenset": st.frozensets(st.integers(0, 9), max_size=4),
    }[kind]


#: value kind -> a combiner that merges it.  ``ListConcatCombiner`` is the
#: order-sensitive one: its result depends on the inputs' order, which the
#: delta must not.
COMBINERS = {
    "int": SumCombiner(),
    "float": SumCombiner(),
    "vector": VectorSumCombiner(),
    "sequence": ListConcatCombiner(),
    "frozenset": SetUnionCombiner(),
}


@st.composite
def merges(draw):
    """2-5 partitions: some keys held by several of them (merged), some by
    one (passed through), in any proportion from all-merged to none."""
    make_key = KEY_FAMILIES[draw(st.sampled_from(sorted(KEY_FAMILIES)))]
    kind = draw(st.sampled_from(sorted(COMBINERS)))
    values = _values(kind, dim=draw(st.integers(1, 4)))
    arity = draw(st.integers(2, 5))
    holders = {}
    for i in range(draw(st.integers(0, 12))):
        holders[make_key(i)] = draw(
            st.sets(st.integers(0, arity - 1), min_size=2, max_size=arity)
        )
    for i in range(draw(st.integers(0, 40))):
        holders[make_key(100 + i)] = {draw(st.integers(0, arity - 1))}
    entries = [{} for _ in range(arity)]
    for key in draw(st.permutations(list(holders))):
        for index in sorted(holders[key]):
            entries[index][key] = draw(values)
    partitions = [Partition(held) for held in entries]
    # Fewer than two non-empty inputs is a pass-through, not a combine.
    assume(sum(map(bool, partitions)) >= 2)
    return kind, partitions


@settings(max_examples=200, deadline=None)
@given(merge=merges())
def test_combined_uid_is_the_fingerprint_of_the_entries(merge):
    kind, partitions = merge
    combined = combine_partitions(partitions, COMBINERS[kind])
    assert combined.uid == _fingerprint_entries(combined.entries)
    assert first_unsound([combined]) is None
    assert combined == Partition(combined.entries)


def _two_inputs(merged, passing):
    """Two partitions sharing ``merged`` keys, with ``passing`` more keys
    that only one of them holds (dealt alternately)."""
    left = {f"m{i}": i + 1 for i in range(merged)}
    right = {f"m{i}": 10 * (i + 1) for i in range(merged)}
    for i in range(passing):
        (left if i % 2 else right)[f"p{i}"] = i
    return [Partition(left), Partition(right)]


@pytest.mark.parametrize("passing", [0, 5, 6, 7, 30])
def test_the_cheaper_of_delta_and_full_rehash_runs(monkeypatch, length_terms, passing):
    """Two merged keys of two inputs cost the delta 2 * (2 + 1) entry
    hashes and one length hash an input: 8, against one entry hash a
    result key.  So 8 result keys is the threshold (full re-hash, at no
    loss), 9 is the first delta, and either way the uid is the same.  The
    rule counts a length term as a digest; the cache makes one only for a
    length not met before -- the inputs' were met when they were built,
    the result's is a miss unless an input has its length."""
    merged = 2
    partitions = _two_inputs(merged, passing)
    calls, _ = count_digests(monkeypatch)
    combined = combine_partitions(partitions, SumCombiner())
    spent, entry_hashes = len(calls), calls.count("pent")
    assert len(combined) == merged + passing
    assert combined.uid == _fingerprint_entries(combined.entries)
    misses = int(len(combined) not in {len(p) for p in partitions})
    assert calls.count("pfp") == misses
    full = len(combined) + 1
    delta = merged * 3 + len(partitions) + 1
    if len(combined) > 8:
        assert delta < full and entry_hashes == merged * 3
    else:
        assert delta >= full and entry_hashes == len(combined)
    assert spent == entry_hashes + misses


@pytest.mark.parametrize("merged", [1, 6, 13])
def test_each_merged_key_is_encoded_once(monkeypatch, length_terms, merged):
    """The delta makes three entry digests a key two inputs held -- one out
    for each input's value, one in for the merged value -- from one
    encoding of that key; the 30 keys passing through are never touched.
    Of the three length terms only the result's is a cache miss: the
    inputs' were made when they were built."""
    partitions = _two_inputs(merged, passing=30)
    digests, keyings = count_digests(monkeypatch)
    combined = combine_partitions(partitions, SumCombiner())
    assert digests.count("pent") == 3 * merged
    assert digests.count("pfp") == 1
    assert sorted(keyings) == sorted(encode_key(f"m{i}") for i in range(merged))
    assert combined.uid == _fingerprint_entries(combined.entries)


def test_both_kmeans_keys_always_merge_so_the_full_rehash_runs(
    monkeypatch, length_terms
):
    """Two entry digests and no length digest: the inputs' length, 2, is
    the result's, and was a miss when they were built."""
    vector = VectorSumCombiner()
    partitions = [
        Partition({"c0": (3, (0.5, 1.5)), "c1": (2, (1.0, -1.0))}),
        Partition({"c0": (1, (2.5, 0.5)), "c1": (4, (0.0, 8.0))}),
    ]
    assert list(length_terms) == [2]
    calls, _ = count_digests(monkeypatch)
    combined = combine_partitions(partitions, vector)
    assert calls == ["pent", "pent"]
    assert combined.uid == _fingerprint_entries(combined.entries)


def test_a_set_valued_delta_is_the_fresh_fingerprint(monkeypatch):
    """A set-valued entry is hashed as the set it is -- the canonical ``F``
    form, whatever order its members iterate in and whatever their ``repr``
    -- on the delta path and the full one alike."""
    left = {f"p{i}": frozenset({i, str(i)}) for i in range(20)}
    right = {"m": frozenset({("u", 1), 2, "2", None})}
    left["m"] = frozenset({2, ("u", 3), True})
    digests, _ = count_digests(monkeypatch)
    combined = combine_partitions(
        [Partition(left), Partition(right)], SetUnionCombiner()
    )
    assert digests.count("pent") == 21 + 1 + 3  # two leaves, then the delta
    assert combined.entries["m"] == left["m"] | right["m"]
    by_hand = stable_hash(21, salt="pfp")
    for key, members in combined.entries.items():
        by_hand ^= stable_hash((key, set(members)), salt="pent")
    assert combined.uid == by_hand == _fingerprint_entries(combined.entries)


def test_a_stale_input_uid_fails_verification_downstream():
    """The delta trusts its inputs' uids.  An input whose entries diverged
    from its uid (a slot flipped in memory) yields
    the same entries as ever, under a uid that no longer verifies -- where
    the full re-hash fingerprints the corrupt content as valid."""
    clean, other = _two_inputs(merged=2, passing=30)
    rotten_entries = dict(clean.entries, p1=-999)
    assert "p1" in clean.entries
    stale = Partition(rotten_entries, uid=clean.uid)
    assert first_unsound([stale]) is stale

    honest = combine_partitions([Partition(rotten_entries), other], SumCombiner())
    combined = combine_partitions([stale, other], SumCombiner())
    assert combined.entries == honest.entries  # outputs do not change
    assert first_unsound([honest]) is None
    assert first_unsound([combined]) is combined  # ... detection gets stricter

    # Below the threshold every entry is hashed afresh, as before: the
    # corrupt content comes out with a valid fingerprint of itself.
    small_clean, small_other = _two_inputs(merged=2, passing=4)
    small_stale = Partition(
        dict(small_clean.entries, p1=-999), uid=small_clean.uid
    )
    rehashed = combine_partitions([small_stale, small_other], SumCombiner())
    assert first_unsound([rehashed]) is None
