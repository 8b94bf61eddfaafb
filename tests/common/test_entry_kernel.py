"""``xor_entry_hashes`` is the XOR of ``entry_hash`` over a mapping.

The kernel encodes and frames the exact-type cases itself and keeps an
optional identity memo for tuple-keyed entries; neither may change a bit
of what it returns.  Every case here is checked against ``entry_hash``,
which ``tests/common/test_hashing_vectors.py`` holds to ``stable_hash``
of the pair and to the pinned vectors.
"""

import struct
from functools import reduce
from operator import xor

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import entry_hash, xor_entry_hashes


class Count(int):
    """An int subclass: off the kernel's exact-type path."""


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
    assert xor_entry_hashes(entries, salt=salt) == expected
    memo: dict = {}
    assert xor_entry_hashes(entries, salt=salt, memo=memo) == expected
    # The memo holds tuple-keyed entries only, and a second pass reads it.
    assert len(memo) == sum(type(key) is tuple for key in entries)
    assert xor_entry_hashes(entries, salt=salt, memo=memo) == expected


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
    memo: dict = {}
    assert xor_entry_hashes(first, salt=salt, memo=memo) == by_entry_hash(first, salt)
    assert xor_entry_hashes(second, salt=salt, memo=memo) == by_entry_hash(second, salt)
