"""``xor_entry_hashes`` is the XOR of ``entry_hash`` over each of a
sequence of mappings.

The kernel encodes and frames the exact-type cases itself and keeps an
optional memo -- str-keyed int entries by value, tuple-keyed ones by
object identity and, after an identity miss, flat tuple-keyed int
entries by value; none may change a bit of what it returns.  Every
case here is checked against ``entry_hash``, which
``tests/common/test_hashing_vectors.py`` holds to ``stable_hash`` of the
pair and to the pinned vectors.
"""

import struct
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.identity import FLAT_ITEMS, by_value, entry_hash, xor_entry_hashes
from tests.conftest import count_digests


class Count(int):
    """An int subclass: off the kernel's exact-type path."""


class StrSub(str):
    """A str subclass: off the kernel's exact-type path."""


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


SALTS = st.sampled_from(["", "pent", "a-salt-over-16-bytes"])
#: -0.0 and NaN payloads are content: bits the kernel must keep.
ODD_FLOATS = st.sampled_from(
    [-0.0, 0.0, _float_from_bits(0x7FF8_0000_0000_0001), _float_from_bits(0xFFF8 << 48)]
)
scalars = st.one_of(
    st.text(max_size=6),
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    ODD_FLOATS,
    st.none(),
    st.binary(max_size=6),
    st.integers(-5, 500).map(Count),
    st.frozensets(st.one_of(st.integers(0, 9), st.text(max_size=2)), max_size=3),
)
keys = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=8,
)
mixed = st.dictionaries(keys, values, max_size=12)
#: A float key with a float value is a ``D2:`` block, not a framed pair.
float_pairs = st.dictionaries(
    st.one_of(st.floats(allow_nan=True), ODD_FLOATS),
    st.one_of(st.floats(allow_nan=True), ODD_FLOATS),
    max_size=6,
)


def by_entry_hash(entries, salt):
    return reduce(
        xor, (entry_hash(k, v, salt=salt) for k, v in entries.items()), 0
    )


@settings(max_examples=300, deadline=None)
@given(entries=st.one_of(mixed, float_pairs), salt=SALTS)
def test_the_kernel_is_the_xor_of_entry_hashes(entries, salt):
    expected = by_entry_hash(entries, salt)
    assert xor_entry_hashes([entries], salt=salt) == [expected]
    memo: dict = {}
    assert xor_entry_hashes([entries], salt=salt, memo=memo) == [expected]
    # The memo holds tuple-keyed entries by identity, and by value the
    # (key, value) of each exact-str / exact-int entry and of each flat
    # tuple-keyed exact-int one (distinct: a mapping's keys are); a second
    # pass reads it.
    assert len(memo) == sum(
        type(key) is tuple
        or (type(key) is str and type(value) is int)
        for key, value in entries.items()
    ) + sum(
        type(key) is tuple
        and type(value) is int
        and FLAT_ITEMS.issuperset(map(type, key))
        for key, value in entries.items()
    )
    assert xor_entry_hashes([entries], salt=salt, memo=memo) == [expected]


@settings(max_examples=200, deadline=None)
@given(
    first=mixed,
    extra=mixed,
    salt=SALTS,
    data=st.data(),
)
def test_one_memo_over_two_mappings_that_share_objects(first, extra, salt, data):
    """The second mapping keeps some of the first's (key, value) pairs of
    objects, pairs some of its keys with another of its value objects, and
    adds entries of its own: a memo filled by the first serves only the
    pairs it saw."""
    items = list(first.items())
    pick = st.integers(0, max(len(items) - 1, 0))
    second = {}
    if items:
        second.update(items[i] for i in data.draw(st.sets(pick)))
        for i, j in data.draw(st.lists(st.tuples(pick, pick), max_size=4)):
            second[items[i][0]] = items[j][1]
    second.update(extra)
    expected = [by_entry_hash(first, salt), by_entry_hash(second, salt)]
    memo: dict = {}
    assert [
        xor_entry_hashes([first], salt=salt, memo=memo)[0],
        xor_entry_hashes([second], salt=salt, memo=memo)[0],
    ] == expected
    # The same, folded in one call.
    assert xor_entry_hashes([first, second], salt=salt, memo={}) == expected


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_the_value_memo_keys_only_exact_str_int_entries(order):
    """Equal is not the same bytes off the exact types: ``True == 1`` is
    ``o1``, ``Count(1)`` and ``StrSub("k")`` go the long way, and ``-0.0
    == 0.0`` differ in a bit.  One memo over all of them, either way
    round, keeps each result its own; only the exact str / int entries
    are stored, and an equal but new big int object is a hit."""
    big = 2**70
    cases = [
        {"k": 1},
        {"k": True},
        {"k": Count(1)},
        {StrSub("k"): 1},
        {"k": 1.0},
        {"k": -0.0},
        {"k": 0.0},
        {"k": big},
        {"k": int(str(big))},
    ]
    assert cases[-1]["k"] is not big
    if order == "reversed":
        cases.reverse()
    memo: dict = {}
    stored: set = set()
    for entries in cases:
        expected = by_entry_hash(entries, "pent")
        assert xor_entry_hashes([entries], salt="pent", memo=memo) == [expected]
        stored.update(
            (key, value)
            for key, value in entries.items()
            if type(key) is str and type(value) is int
        )
        assert len(memo) == len(stored)
    assert memo == {
        ("k", 1): entry_hash("k", 1, salt="pent"),
        ("k", big): entry_hash("k", big, salt="pent"),
    }


def test_a_flat_tuple_key_is_remembered_by_value_after_an_identity_miss(
    monkeypatch,
):
    """A tuple key of exact str / int items with an exact int value is
    looked up by value once its objects miss: an equal key remade as new
    objects is a hit and makes no digest.  A key with a bool, float or
    nested item, or an int subclass or float value, is not flat and is
    hashed again; every result is still the kernel's own."""
    big = 2**70
    flat = {("a", 1): 3, ("b", big): big}
    remade = {tuple(list(key)): int(str(value)) for key, value in flat.items()}
    assert all(a is not b for a, b in zip(remade, flat))
    off = {
        ("e", True): 3,
        ("f", 1.0): 4,
        (("a", 1),): 3,
        ("c", 1): Count(3),
        ("d", 1): 3.0,
    }
    assert len(off) == 5
    again = {tuple(list(key)): value for key, value in off.items()}
    mappings = [flat, remade, off, again, dict(off)]
    expected = [by_entry_hash(m, "pent") for m in mappings]
    digests, _ = count_digests(monkeypatch)
    assert xor_entry_hashes(mappings, salt="pent", memo={}) == expected
    # flat's two entries once; off's five once and again once more each
    # (new key objects, and none flat); a copy of off's very objects hits.
    assert digests.count("pent") == 2 + 5 + 5


@pytest.mark.parametrize(
    "key, taken",
    [
        ("w", True), (7, True), (("w", 7), True), ((), True),
        (True, False), (1.0, False), (None, False), (b"w", False),
        (("w", True), False), (("w", ("x",)), False),
    ],
)
def test_the_by_value_rule_takes_exact_strs_ints_and_flat_tuples_of_them(key, taken):
    """Equality fixes the bytes only of an exact ``str`` or ``int`` and a
    flat tuple of them; a ``bool``, a float, anything else, or a tuple
    holding one, keeps an entry off the by-value memo."""
    assert by_value(key) is taken
