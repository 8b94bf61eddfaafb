"""Pinned ``stable_hash`` values and fast-path / reference byte equality.

Every uid, memo key, tree coin flip and checkpointed fingerprint is a
``stable_hash`` value, so the function's output is a persistent format.
The integer vectors below were computed at the commit *before* the
exact-type fast path and the per-salt prototype states went in; they must
never be regenerated from the code under test.  Every float-bearing vector
is pinned from the *bytes* uid encoding 2 feeds the hash, written out here
and hashed with ``hashlib`` directly (``pinned``): a float is ``d`` + its
eight IEEE-754 bytes little-endian, a non-empty sequence of exact floats
is ``D<n>:`` + the packed block, everything else frames as it always did.
"""

import enum
import hashlib
import pickle
import struct

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import (
    ENTRY_FRAME,
    _encode,
    _encode_fast,
    encode_key,
    hash_encoded,
    stable_hash,
)
from repro.core.identity import by_value, entry_hash, pair_digests, xor_entry_hashes
from repro.core.partition import Partition, first_unsound
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.shuffle import HashPartitioner
from repro.recovery.segments import PICKLE_PROTOCOL
from tests.conftest import profile_calls


class Celsius(float):
    """A float subclass: not the fast path's exact ``float``."""


def pinned(payload: bytes, salt: str = "") -> int:
    """What ``stable_hash`` must return for a value encoding to ``payload``."""
    digest = hashlib.blake2b(
        payload, digest_size=8, person=salt.encode("utf-8")[:16]
    ).digest()
    return int.from_bytes(digest, "big")


def digested(key, value, salt: str) -> int:
    """The engine's own entry hash of ``(key, value)``: by the pair
    digester where the pair is in its domain -- an exact int value under
    a key the by-value rule takes -- else by the kernel, and a key no
    mapping can hold by ``entry_hash`` alone."""
    try:
        if type(value) is int and by_value(key):
            (digest,) = pair_digests([(key, value)], salt=salt)
            return int.from_bytes(digest, "big")
        return xor_entry_hashes([{key: value}], salt=salt)[0]
    except TypeError as error:
        if "unhashable" not in str(error):
            raise
        return entry_hash(key, value, salt=salt)


def float_from_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


# The eight IEEE-754 bytes of a double, little-endian, written out.
ZERO = b"\x00\x00\x00\x00\x00\x00\x00\x00"
MINUS_ZERO = b"\x00\x00\x00\x00\x00\x00\x00\x80"
HALF = b"\x00\x00\x00\x00\x00\x00\xe0\x3f"
ONE = b"\x00\x00\x00\x00\x00\x00\xf0\x3f"
MINUS_FIVE_QUARTERS = b"\x00\x00\x00\x00\x00\x00\xf4\xbf"
TWO = b"\x00\x00\x00\x00\x00\x00\x00\x40"
TEN_TO_22 = b"\x92\xd5\x4d\x06\xcf\xf0\x80\x44"
QUIET_NAN = b"\x00\x00\x00\x00\x00\x00\xf8\x7f"
PAYLOAD_NAN_BYTES = b"\x01\x00\x00\x00\x00\x00\xf8\x7f"
# Floats ``float("nan")`` cannot spell.
PAYLOAD_NAN = float_from_bits(0x7FF8_0000_0000_0001)
NEGATIVE_NAN = float_from_bits(0xFFF8_0000_0000_0000)
FIFTY = tuple(float(i) for i in range(50))
FIFTY_BLOCK = b"D50:" + numpy.arange(50, dtype="<f8").tobytes()


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
    (0.0, "", pinned(b"d" + ZERO)),
    (-0.0, "", pinned(b"d" + MINUS_ZERO)),
    (1.0, "", pinned(b"d" + ONE)),
    (2.5, "pent", pinned(b"d\x00\x00\x00\x00\x00\x00\x04\x40", "pent")),
    (1e22, "", pinned(b"d" + TEN_TO_22)),
    (1e-7, "", pinned(b"d\x48\xaf\xbc\x9a\xf2\xd7\x7a\x3e")),
    (0.1 + 0.2, "pent", pinned(b"d\x34\x33\x33\x33\x33\x33\xd3\x3f", "pent")),
    (float("nan"), "", pinned(b"d" + QUIET_NAN)),
    (float("inf"), "", pinned(b"d\x00\x00\x00\x00\x00\x00\xf0\x7f")),
    (float("-inf"), "pent", pinned(b"d\x00\x00\x00\x00\x00\x00\xf0\xff", "pent")),
    ((), "", 0xde87115c0d5365cb),
    ([], "", 0xde87115c0d5365cb),
    ((1, 2), "", 0xab5d4c706b9946ae),
    ([1, 2], "", 0xab5d4c706b9946ae),
    ((1, 2), "xxxxxxxxxxxxxxxxxxxx", 0x427109a3cad9a276),
    (((), [()], ((1,), [])), "", 0xa495b8371156e83d),
    (("word", 3), "pent", 0x20cd7ea9c4f9a06b),
    ((("row", 7), 12), "pent", 0xe7cb165dfcf61ff7),
    (
        ("c0", (3, (0.5, -1.25, 1e22))),
        "pent",
        pinned(
            b"t23:sc036:t22:i327:D3:" + HALF + MINUS_FIVE_QUARTERS + TEN_TO_22,
            "pent",
        ),
    ),
    (
        ("k", (True, 1, 1.0, "1", b"1", None)),
        "pent",
        pinned(b"t22:sk32:t62:o12:i19:d" + ONE + b"2:s12:b11:n", "pent"),
    ),
    ((1, (True, False)), "", 0x7421092ca971e2b5),
    (frozenset({"a", "b", "c"}), "", 0x78882dc5dbe7777c),
    (("k", frozenset({("a", 1), ("b", 2)})), "pent", 0x302f0987341dd0d9),
    ({1, 2, 3}, "qorder", 0xdd2cda63d85beadf),
    (("k", ("a", "b")), "pent", 0x96a48a48b50ef36a),
    (Celsius(21.5), "", pinned(b"d\x00\x00\x00\x00\x00\x80\x35\x40")),
    (("k", Celsius(-0.0)), "pent", pinned(b"t22:sk9:d" + MINUS_ZERO, "pent")),
    ((3, 4), "cid", 0x0138f1eb040df923),
    ((17, "stream"), "rng", 0xcd7978d3c6b2ea4b),
    ((123456789, 2, 7), "coin", 0x891e5f9530618784),
    # -- uid encoding 2: the float block and what stays off it ---------------
    (FIFTY, "pent", pinned(FIFTY_BLOCK, "pent")),
    (list(FIFTY), "pent", pinned(FIFTY_BLOCK, "pent")),
    ((1.0,), "", pinned(b"D1:" + ONE)),
    ((1.0, 2.0), "", pinned(b"D2:" + ONE + TWO)),
    ((1, 2.0), "", pinned(b"t22:i19:d" + TWO)),
    ((True, 1.0), "", pinned(b"t22:o19:d" + ONE)),
    ((Celsius(1.0), 2.0), "", pinned(b"t29:d" + ONE + b"9:d" + TWO)),
    ((numpy.float64(1.0), 2.0), "", pinned(b"t29:d" + ONE + b"9:d" + TWO)),
    ((2**53 + 1, 1.0), "", pinned(b"t217:i90071992547409939:d" + ONE)),
    ((2**53, 1.0), "", pinned(b"t217:i90071992547409929:d" + ONE)),
    ((0.0, -0.0), "", pinned(b"D2:" + ZERO + MINUS_ZERO)),
    ((-0.0, 0.0), "", pinned(b"D2:" + MINUS_ZERO + ZERO)),
    (PAYLOAD_NAN, "", pinned(b"d" + PAYLOAD_NAN_BYTES)),
    (NEGATIVE_NAN, "", pinned(b"d\x00\x00\x00\x00\x00\x00\xf8\xff")),
    (
        (float("nan"), PAYLOAD_NAN),
        "pent",
        pinned(b"D2:" + QUIET_NAN + PAYLOAD_NAN_BYTES, "pent"),
    ),
    (
        ("c1", (7, ((1.0, 2.0), "x"))),
        "pent",
        pinned(b"t23:sc137:t22:i728:t219:D2:" + ONE + TWO + b"2:sx", "pent"),
    ),
]


@pytest.mark.parametrize(
    "value, salt, expected", VECTORS, ids=[f"v{i:02d}" for i in range(len(VECTORS))]
)
def test_pinned_vector(value, salt, expected):
    assert stable_hash(value, salt=salt) == expected
    # A second call goes through the salt's cached prototype state.
    assert stable_hash(value, salt=salt) == expected


def test_numpy_float64_hashes_as_the_float_it_is():
    # Not an exact ``float``: it takes ``_encode``'s isinstance branch, whose
    # bytes are the value's bits -- whatever the installed numpy prints.
    for x in (1.5, -0.0, 1e22, 0.1 + 0.2, float("inf")):
        value = numpy.float64(x)
        assert stable_hash(value) == stable_hash(x)
        assert stable_hash(("k", 3, value, None)) == stable_hash(("k", 3, x, None))
        expected = entry_hash("k", x, salt="pent")
        assert entry_hash("k", value, salt="pent") == expected
        assert digested("k", value, "pent") == expected


def test_a_tuple_of_numpy_float64_is_not_a_block():
    # The block is chosen by exact type, so these frame item by item --
    # the bytes the reference ladder gives, and not the exact floats' uid.
    vector = (numpy.float64(0.5), numpy.float64(-1.25))
    itemised = b"t29:d" + HALF + b"9:d" + MINUS_FIVE_QUARTERS
    assert _encode_fast(vector) == _encode(vector) == itemised
    assert _encode_fast((0.5, -1.25)) == b"D2:" + HALF + MINUS_FIVE_QUARTERS


def test_values_off_the_fast_path_keep_their_reference_tags():
    assert stable_hash(True) != stable_hash(1)  # bool is tagged before int
    assert stable_hash(Celsius(1.0)) == stable_hash(1.0)  # same bits, same tag
    assert stable_hash(-0.0) != stable_hash(0.0)
    assert stable_hash((1, 2)) == stable_hash([1, 2])  # one sequence tag
    assert stable_hash(1) != stable_hash(1.0)  # ``i1`` and ``d`` + bits


def test_a_set_valued_entry_has_the_one_set_encoding():
    # Top level or nested, a set is its sorted ``F`` form: the entry below
    # is vector v37, and the same set one level down differs by framing only.
    members = frozenset({("a", 1), ("b", 2)})
    canonical = _encode(members)
    assert canonical.startswith(b"F2")
    assert _encode((members,)) == b"t1%d:%b" % (len(canonical), canonical)
    assert entry_hash("k", members, salt="pent") == 0x302F0987341DD0D9
    assert Partition({"k": members}).uid == (
        stable_hash(1, salt="pfp") ^ 0x302F0987341DD0D9
    )


def test_hashing_a_float_vector_takes_no_step_per_float():
    def events(key, value):
        return profile_calls(lambda: entry_hash(key, value, salt="pent"))[1]

    short = events("c0", (3, tuple(i + 0.5 for i in range(5))))
    assert events("c0", (3, tuple(i + 0.5 for i in range(500)))) == short
    # A str-led key is turned away from the block by its first item: 24
    # events at the commit before the block went in, one more allowed.
    assert events(("row", "col"), 12) <= 25


def test_a_str_pair_key_is_encoded_in_one_call():
    """Matrix's keys are ``(str, str)`` pairs: the tuple loop encodes an
    exact str or int item itself.  At the commit before, that took three
    ``_encode_fast`` calls and 15 interpreter events; one call and 13
    since, with the reference bytes."""
    key = ("r12", "c7")
    encoded, events, calls = profile_calls(
        lambda: _encode_fast(key), _encode_fast.__code__
    )
    assert encoded == _encode(key)
    assert calls == 1 and events <= 13


def test_float_bits_survive_the_checkpoint_pickle():
    partition = Partition(
        {
            "vector": (3, tuple(i / 7 for i in range(50))),
            "nans": (float("nan"), PAYLOAD_NAN, NEGATIVE_NAN),
            "zeros": (0.0, -0.0),
            "scalar": NEGATIVE_NAN,
        }
    )
    restored = pickle.loads(pickle.dumps(partition, protocol=PICKLE_PROTOCOL))
    assert restored.uid == partition.uid
    assert first_unsound([restored]) is None


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
float_vectors = st.lists(st.floats(allow_nan=True), min_size=1, max_size=6)
hashables = st.recursive(
    st.one_of(scalars, float_vectors.map(tuple)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.frozensets(
            st.one_of(st.integers(), st.text(max_size=4), st.booleans()), max_size=4
        ),
    ),
    max_leaves=12,
)
values = st.recursive(
    st.one_of(hashables, float_vectors),
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


def content(value):
    """``value`` as a uid reads it: a tag, floats by ``hex``, a list a tuple."""
    if isinstance(value, (tuple, list)):
        return ("t", tuple(map(content, value)))
    if isinstance(value, (set, frozenset)):
        return ("F", frozenset(map(content, value)))
    if isinstance(value, float):
        return ("d", float.hex(value))
    return (type(value).__name__, value)


# Few enough scalars that two draws often agree, and every pair the
# encoding must keep apart: 1 / 1.0 / True, the zeros, ints a double merges.
look_alikes = st.recursive(
    st.sampled_from(
        [None, True, False, 0, 1, 2**53, 2**53 + 1, 0.0, -0.0, 1.0, 2.0]
        + [Celsius(1.0), numpy.float64(2.0), "", "1", "d", b"", b"1", b"d" + ONE]
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(left=look_alikes, right=look_alikes)
def test_equal_encodings_mean_equal_content(left, right):
    if _encode_fast(left) == _encode_fast(right):
        assert content(left) == content(right)


# -- the entry forms are ``stable_hash`` of the pair --------------------------


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
    assert digested(key, value, salt) == expected


@pytest.mark.parametrize(
    "value, salt, expected", VECTORS, ids=[f"v{i:02d}" for i in range(len(VECTORS))]
)
def test_pinned_vector_finished_from_its_encoding(value, salt, expected):
    assert hash_encoded(encode_key(value), salt=salt) == expected
    partitioner = HashPartitioner(7)
    route = stable_hash(value, salt="part") % 7
    assert partitioner.partition(value) == route
    assert partitioner.partition(value, encode_key(value)) == route


@pytest.mark.parametrize("pair, salt, expected", PAIR_VECTORS)
def test_pinned_pair_vector_finished_from_the_keys_encoding(pair, salt, expected):
    """What a map task does: one ``encode_key(key)``, for the route.  The
    pair's hash is the entry frame finished from those bytes and the
    value's -- but a float key's with a float value, a block -- and the
    leaf's uid, unmade until its first read, is that hash's."""
    key, value = pair
    encoded = encode_key(key)
    route = stable_hash(key, salt="part") % 7
    assert HashPartitioner(7).partition(key, encoded) == route
    if not (type(key) is float and type(value) is float):
        value_bytes = encode_key(value)
        frame = ENTRY_FRAME % (len(encoded), encoded, len(value_bytes), value_bytes)
        assert pinned(frame, salt) == expected
    leaf = Partition.from_value_lists({key: [value]}, SumCombiner())
    assert leaf._uid is None
    assert leaf.uid == stable_hash(1, salt="pfp") ^ stable_hash((key, value), salt="pent")
    assert leaf.uid == Partition({key: value}).uid
    assert first_unsound([leaf]) is None


# ``values`` already draws bool, None, bytes, Celsius and numpy.float64.
off_the_fast_path = st.sampled_from([Colour.RED, Label("row"), Label("")])
entry_parts = st.one_of(
    values, off_the_fast_path, st.tuples(off_the_fast_path, values)
)


@settings(max_examples=300, deadline=None)
@given(
    key=entry_parts,
    value=entry_parts,
    salt=st.sampled_from(["", "pent", "a-salt-over-16-bytes"]),
)
def test_both_entry_forms_are_stable_hash_of_the_pair(key, value, salt):
    expected = stable_hash((key, value), salt=salt)
    assert entry_hash(key, value, salt=salt) == expected
    assert digested(key, value, salt) == expected


flat_keys = st.one_of(
    st.text(max_size=6),
    st.integers(),
    st.lists(st.one_of(st.text(max_size=4), st.integers()), max_size=3).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(
    groups=st.lists(
        st.tuples(flat_keys, st.lists(st.integers(), min_size=1, max_size=4, unique=True)),
        max_size=6,
    ),
    salt=st.sampled_from(["", "pent", "a-salt-over-16-bytes"]),
)
def test_the_pair_digester_gives_each_pair_its_hash(groups, salt):
    """A pair is one update of its key's head and its value's frame; a
    key or value met again in the call (as the restore fold's are) reuses
    its head or frame.  Each digest is the pair's ``stable_hash``, in
    order."""
    expected = [
        stable_hash((key, value), salt=salt) for key, values in groups for value in values
    ]
    pairs = [(key, value) for key, values in groups for value in values]
    digests = pair_digests(pairs, salt=salt)
    assert [int.from_bytes(digest, "big") for digest in digests] == expected


@settings(max_examples=100, deadline=None)
@given(key=flat_keys, several=st.lists(st.integers(), max_size=5, unique=True))
def test_finishing_a_keyed_hasher_leaves_its_key_state_alone(key, several):
    """A key met with several values in a call: its head is made once and
    each value finishes a fresh state from it, so no value's digest
    depends on the values finished before it, in either order."""
    expected = [stable_hash((key, value), salt="pent") for value in several]
    for values, want in ((several, expected), (several[::-1], expected[::-1])):
        digests = pair_digests([(key, value) for value in values], salt="pent")
        assert [int.from_bytes(digest, "big") for digest in digests] == want


@pytest.mark.parametrize("key, value", [(numpy.int64(3), 1), ("k", numpy.int64(3))])
def test_what_stable_hash_cannot_encode_neither_entry_form_can(key, value):
    with pytest.raises(TypeError, match="int64"):
        stable_hash((key, value), salt="pent")
    with pytest.raises(TypeError, match="int64"):
        entry_hash(key, value, salt="pent")
    with pytest.raises(TypeError, match="int64"):
        xor_entry_hashes([{key: value}], salt="pent")
