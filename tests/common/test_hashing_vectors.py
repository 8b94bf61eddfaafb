"""Pinned ``stable_hash`` values and fast-path / reference byte equality.

Every uid, memo key, tree coin flip and checkpointed fingerprint is a
``stable_hash`` value, so the function's output is a persistent format.
The vectors below were computed at the commit *before* the exact-type
fast path and the per-salt prototype states went in; they must never be
regenerated from the code under test.
"""

import enum
import hashlib

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import (
    _encode,
    _encode_fast,
    entry_hash,
    entry_hasher,
    stable_hash,
)
from repro.core.partition import _coerce


class Celsius(float):
    """A float subclass: not the fast path's exact ``float``."""


VECTORS = [
    ("hello", "", 0xdad5b64cad730f2d),
    ("", "", 0xe64984c3aacf6ede),
    ("", "pent", 0x803c6e405e162b7b),
    ("na\u00efve \u2603", "part", 0x44df870d8bd1d3ea),
    (b"bytes", "", 0x555f12dc200d393c),
    (b"", "cid", 0x8fcb43fd50979a80),
    (0, "", 0x7af38095fd650cb3),
    (-1, "pfp", 0xdd7b70cb16fedbd1),
    (1100, "pfp", 0x252812fd34add1ee),
    (2**64, "", 0xe568d56d4705cc38),
    (-(10**30), "coin", 0x8c8f6b598c1d5147),
    (True, "", 0xb4536ee010d86a97),
    (False, "", 0x700f23ebe22dc1cb),
    (1, "", 0xae2a1effba11cf0a),
    (None, "", 0x5dba33a5971e98b4),
    (0.0, "", 0x395304d057db4ed0),
    (-0.0, "", 0x9f65b9100aa89d33),
    (1.0, "", 0x1ad93bcea1082f60),
    (2.5, "pent", 0xb42de9cbd35ea343),
    (1e22, "", 0xac3ff82ccfafbe9a),
    (1e-7, "", 0x7f2f2eee3c31335c),
    (0.1 + 0.2, "pent", 0x2ad4d444a2e4ff22),
    (float("nan"), "", 0xfac7abaccb4923a1),
    (float("inf"), "", 0x6e0e65ce065576f9),
    (float("-inf"), "pent", 0x6b3bad8b85695467),
    ((), "", 0xde87115c0d5365cb),
    ([], "", 0xde87115c0d5365cb),
    ((1, 2), "", 0xab5d4c706b9946ae),
    ([1, 2], "", 0xab5d4c706b9946ae),
    ((1, 2), "xxxxxxxxxxxxxxxxxxxx", 0x427109a3cad9a276),
    (((), [()], ((1,), [])), "", 0xa495b8371156e83d),
    (("word", 3), "pent", 0x20cd7ea9c4f9a06b),
    ((("row", 7), 12), "pent", 0xe7cb165dfcf61ff7),
    (("c0", (3, (0.5, -1.25, 1e22))), "pent", 0x9efb19783ff040b3),
    (("k", (True, 1, 1.0, "1", b"1", None)), "pent", 0x28c5e35ca2551373),
    ((1, (True, False)), "", 0x7421092ca971e2b5),
    (frozenset({"a", "b", "c"}), "", 0x78882dc5dbe7777c),
    (("k", frozenset({("a", 1), ("b", 2)})), "pent", 0x302f0987341dd0d9),
    ({1, 2, 3}, "qorder", 0xdd2cda63d85beadf),
    (("k", ("a", "b")), "pent", 0x96a48a48b50ef36a),
    (Celsius(21.5), "", 0x0d8468f535938a49),
    (("k", Celsius(-0.0)), "pent", 0xeeca47e434b64259),
    ((3, 4), "cid", 0x0138f1eb040df923),
    ((17, "stream"), "rng", 0xcd7978d3c6b2ea4b),
    ((123456789, 2, 7), "coin", 0x891e5f9530618784),
]


@pytest.mark.parametrize(
    "value, salt, expected", VECTORS, ids=[f"v{i:02d}" for i in range(len(VECTORS))]
)
def test_pinned_vector(value, salt, expected):
    assert stable_hash(value, salt=salt) == expected
    # A second call goes through the salt's cached prototype state.
    assert stable_hash(value, salt=salt) == expected


def test_numpy_float64_hashes_through_its_repr():
    # Not an exact ``float``: it takes ``_encode``'s isinstance branch,
    # whose bytes come from ``repr`` -- which numpy 2 changed.
    value = numpy.float64(1.5)
    if repr(value) == "1.5":
        assert stable_hash(value) == stable_hash(1.5)
    else:
        assert repr(value) == "np.float64(1.5)"
        assert stable_hash(value) == 0xE45F7988E9A82994
        assert (
            stable_hash(("k", numpy.float64(-0.0)), salt="pent")
            == 0xA157E93EFE0AF24D
        )


def test_values_off_the_fast_path_keep_their_reference_tags():
    assert stable_hash(True) != stable_hash(1)  # bool is tagged before int
    assert stable_hash(Celsius(1.0)) == stable_hash(1.0)  # same repr, same tag
    assert stable_hash(-0.0) != stable_hash(0.0)
    assert stable_hash((1, 2)) == stable_hash([1, 2])  # one sequence tag


def test_salt_is_cut_to_sixteen_bytes():
    assert stable_hash("x", salt="s" * 16) == stable_hash("x", salt="s" * 40)
    assert stable_hash("x", salt="s" * 15) != stable_hash("x", salt="s" * 16)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False).map(Celsius),
    st.floats(allow_nan=False).map(numpy.float64),
    st.text(max_size=8),
    st.binary(max_size=8),
)
hashables = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.frozensets(
            st.one_of(st.integers(), st.text(max_size=4), st.booleans()), max_size=4
        ),
    ),
    max_leaves=12,
)
values = st.recursive(
    hashables,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple)
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(value=values, salt=st.sampled_from(["", "pent", "pfp", "a-salt-over-16-bytes"]))
def test_fast_path_encodes_the_reference_bytes(value, salt):
    encoded = _encode(value)
    assert _encode_fast(value) == encoded
    reference = hashlib.blake2b(
        encoded, digest_size=8, person=salt.encode("utf-8")[:16]
    ).digest()
    assert stable_hash(value, salt=salt) == int.from_bytes(reference, "big")


# -- the two entry forms are ``stable_hash`` of the pair ----------------------


class Colour(enum.IntEnum):
    RED = 1


class Label(str):
    """A str subclass: not the fast path's exact ``str``."""


PAIR_VECTORS = [
    pytest.param(*vector, id=f"v{i:02d}")
    for i, vector in enumerate(VECTORS)
    if isinstance(vector[0], (tuple, list)) and len(vector[0]) == 2
]


@pytest.mark.parametrize("pair, salt, expected", PAIR_VECTORS)
def test_pinned_pair_vector_through_both_entry_forms(pair, salt, expected):
    key, value = pair
    assert entry_hash(key, value, salt=salt) == expected
    assert entry_hasher(key, salt=salt)(value) == expected


# ``values`` already draws bool, None, bytes, Celsius and numpy.float64.
off_the_fast_path = st.sampled_from([Colour.RED, Label("row"), Label("")])
entry_parts = st.one_of(
    values, off_the_fast_path, st.tuples(off_the_fast_path, values)
)


@settings(max_examples=300, deadline=None)
@given(
    key=entry_parts,
    value=entry_parts.map(_coerce),
    salt=st.sampled_from(["", "pent", "a-salt-over-16-bytes"]),
)
def test_both_entry_forms_are_stable_hash_of_the_pair(key, value, salt):
    expected = stable_hash((key, value), salt=salt)
    assert entry_hash(key, value, salt=salt) == expected
    assert entry_hasher(key, salt=salt)(value) == expected


@settings(max_examples=100, deadline=None)
@given(key=entry_parts, several=st.lists(entry_parts.map(_coerce), max_size=5))
def test_finishing_a_keyed_hasher_leaves_its_key_state_alone(key, several):
    hash_with_key = entry_hasher(key, salt="pent")
    expected = [stable_hash((key, value), salt="pent") for value in several]
    assert [hash_with_key(value) for value in several] == expected
    assert [hash_with_key(value) for value in reversed(several)] == expected[::-1]


@pytest.mark.parametrize("key, value", [(numpy.int64(3), 1), ("k", numpy.int64(3))])
def test_what_stable_hash_cannot_encode_neither_entry_form_can(key, value):
    with pytest.raises(TypeError, match="int64"):
        stable_hash((key, value), salt="pent")
    with pytest.raises(TypeError, match="int64"):
        entry_hash(key, value, salt="pent")
    with pytest.raises(TypeError, match="int64"):
        entry_hasher(key, salt="pent")(value)
