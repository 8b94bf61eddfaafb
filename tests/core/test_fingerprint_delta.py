"""A combined partition's uid is the fingerprint of its entries.

``combine_partitions`` hashes nothing: the result's uid is made where it
is first read, by one fold of its own entries, never from its inputs'
uids.  These tests hold that uid to the full re-hash
(``_fingerprint_entries``) over every kind of value and combiner, and
count what the read costs: one encoding and one digest a result key.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.hashing import encode_key
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


@pytest.mark.parametrize("merged", [1, 6, 13])
def test_each_merged_key_is_encoded_once(monkeypatch, length_terms, merged):
    """The combine encodes and digests nothing.  Its uid's first read
    encodes each result key once -- a merged key no more often than the
    30 passing through -- makes one entry digest each, and the result's
    length term, a cache miss; a second read makes nothing."""
    partitions = _two_inputs(merged, passing=30)
    digests, keyings = count_digests(monkeypatch)
    combined = combine_partitions(partitions, SumCombiner())
    assert digests == [] and keyings == []
    uid = combined.uid
    assert digests.count("pent") == len(combined) == merged + 30
    assert digests.count("pfp") == 1
    assert sorted(keyings) == sorted(map(encode_key, combined.entries))
    made = len(digests)
    assert combined.uid == uid == _fingerprint_entries(combined.entries)
    assert len(digests) == made + len(combined)  # the by-hand re-hash


def test_both_kmeans_keys_always_merge_so_the_full_rehash_runs(
    monkeypatch, length_terms
):
    """Two entry digests, at the read, and no length digest: the inputs'
    length, 2, is the result's, and was a miss when their uids were
    read."""
    vector = VectorSumCombiner()
    partitions = [
        Partition({"c0": (3, (0.5, 1.5)), "c1": (2, (1.0, -1.0))}),
        Partition({"c0": (1, (2.5, 0.5)), "c1": (4, (0.0, 8.0))}),
    ]
    assert [p.uid for p in partitions] and list(length_terms) == [2]
    calls, _ = count_digests(monkeypatch)
    combined = combine_partitions(partitions, vector)
    assert calls == []
    assert combined.uid and calls == ["pent", "pent"]
    assert combined.uid == _fingerprint_entries(combined.entries)
