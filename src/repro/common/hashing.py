"""Stable, process-independent hashing.

Python's builtin :func:`hash` is randomized per process for strings, which
would make tree shapes and memo hits non-reproducible.  All identity used by
memo tables and randomized tree coin flips goes through the helpers here,
which are based on BLAKE2b and therefore stable across runs and platforms.

What is hashed is a tagged encoding of the value -- uid encoding 2; DESIGN
"Key design decisions" 3 has the table of tags and the rulings on floats.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Callable, Mapping

_HASH_BYTES = 8
_pack_double = struct.Struct("<d").pack


def _encode(value: Any) -> bytes:
    """Encode a value into bytes canonically for hashing.

    Supports the types that flow through the data plane: strings, bytes,
    ints, floats, bools, None, and (possibly nested) tuples/lists of them.
    """
    if isinstance(value, bytes):
        return b"b" + value
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, bool):
        return b"o1" if value else b"o0"
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"d" + _pack_double(value)  # its bits: -0.0, NaN payloads
    if value is None:
        return b"n"
    if isinstance(value, (tuple, list)):
        if value and all(type(item) is float for item in value):
            return b"D%d:" % len(value) + b"".join(map(_pack_double, value))
        return _encode_sequence(b"t", [_encode(item) for item in value])
    if isinstance(value, (frozenset, set)):
        # Canonicalize by sorting element encodings: set order must not
        # change the hash.
        return _encode_sequence(b"F", sorted(_encode(item) for item in value))
    raise TypeError(f"cannot stably hash value of type {type(value).__name__}")


def _encode_sequence(tag: bytes, encoded_items: list[bytes]) -> bytes:
    parts = [tag, str(len(encoded_items)).encode("ascii")]
    for encoded in encoded_items:
        parts.append(str(len(encoded)).encode("ascii"))
        parts.append(b":")
        parts.append(encoded)
    return b"".join(parts)


def _encode_fast(value: Any) -> bytes:
    """``_encode`` for the exact types the hot path carries, same bytes.

    Dispatches on ``type(value) is ...`` rather than an ``isinstance``
    ladder and frames sequence items as it goes.  Anything else -- ``bool``
    and every other subclass included, because ``_encode`` orders those
    checks deliberately -- takes ``_encode`` itself.  Only a sequence led
    by an exact float is tried for the block (a str-led key pays one
    comparison), and by exact type: ``struct`` would pack an int as a double.
    """
    kind = type(value)
    if kind is str:
        return b"s" + value.encode("utf-8")
    if kind is int:
        return b"i%d" % value
    if kind is float:
        return b"d" + _pack_double(value)
    if kind is tuple or kind is list:
        if value and type(value[0]) is float and set(map(type, value)) == {float}:
            return b"D%d:" % len(value) + struct.pack("<%dd" % len(value), *value)
        parts = [b"t%d" % len(value)]
        for item in value:
            encoded = _encode_fast(item)
            parts.append(b"%d:" % len(encoded))
            parts.append(encoded)
        return b"".join(parts)
    return _encode(value)


#: salt -> keyed BLAKE2b state with nothing hashed yet.  Salts are string
#: literals at the call sites, so this holds a couple of dozen entries;
#: every hash starts from a ``.copy()`` and the prototypes never change.
_PROTOTYPES: dict[str, Any] = {}


def _new_prototype(salt: str) -> Any:
    prototype = _PROTOTYPES[salt] = hashlib.blake2b(
        digest_size=_HASH_BYTES, person=salt.encode("utf-8")[:16]
    )
    return prototype


#: The bytes every hash of a key starts from: a map task makes them once
#: and finishes both the key's route and its entry's hash from them.
encode_key = _encode_fast


def hash_encoded(encoded: bytes, *, salt: str = "") -> int:
    """``stable_hash(value, salt=salt)`` from ``encode_key(value)``."""
    state = (_PROTOTYPES.get(salt) or _new_prototype(salt)).copy()
    state.update(encoded)
    return int.from_bytes(state.digest(), "big")


def entry_hash_encoded(key: bytes, value: Any, *, salt: str = "") -> int:
    """``entry_hash`` from ``encode_key(key)``: ``t2``, then key and value each
    framed by its length.  Not for a ``float`` key (a block, with a float)."""
    value = _encode_fast(value)
    state = (_PROTOTYPES.get(salt) or _new_prototype(salt)).copy()
    state.update(b"t2%d:%b%d:%b" % (len(key), key, len(value), value))
    return int.from_bytes(state.digest(), "big")


def stable_hash(value: Any, *, salt: str = "") -> int:
    """Return a stable 64-bit hash of ``value``.

    The optional ``salt`` derives independent hash families from the same
    input (used e.g. for per-level coin flips in the randomized folding
    tree).
    """
    return hash_encoded(_encode_fast(value), salt=salt)


def entry_hash(key: Any, value: Any, *, salt: str = "") -> int:
    """``stable_hash((key, value), salt=salt)``, without building the pair
    (two floats are a block, and go the long way)."""
    if type(key) is float and type(value) is float:
        return stable_hash((key, value), salt=salt)
    return entry_hash_encoded(_encode_fast(key), value, salt=salt)


def xor_entry_hashes(
    entries: Mapping[Any, Any],
    *,
    salt: str,
    memo: dict[tuple[int, int], int] | None = None,
) -> int:
    """The XOR of ``entry_hash(key, value, salt=salt)`` over ``entries``.

    The one loop that fingerprints a whole mapping.  Keys of exact ``str``,
    ``int`` or ``tuple`` type and values of exact ``int`` or ``float`` type
    are encoded and framed here, into the bytes ``entry_hash`` makes; any
    other key (a ``float`` one, ``bool`` and every subclass) goes through
    ``entry_hash`` itself, and any other value through ``_encode_fast``.

    ``memo`` belongs to the caller: it maps ``(id(key), id(value))`` of a
    tuple-keyed entry to that entry's hash, read before hashing and written
    after.  It is sound only while every key and value it has seen stays
    alive and unmodified, so that an id names one content; a str or int
    key is cheaper to encode again than to look up, and is never memoized.
    """
    copy = (_PROTOTYPES.get(salt) or _new_prototype(salt)).copy
    acc = 0
    for key, value in entries.items():
        kind = type(key)
        if kind is str:
            key_bytes = b"s" + key.encode("utf-8")
        elif kind is int:
            key_bytes = b"i%d" % key
        elif kind is tuple:
            if memo is not None:
                pair = (id(key), id(value))
                known = memo.get(pair)
                if known is not None:
                    acc ^= known
                    continue
            key_bytes = _encode_fast(key)
        else:
            acc ^= entry_hash(key, value, salt=salt)
            continue
        value_kind = type(value)
        if value_kind is int:
            value_bytes = b"i%d" % value
        elif value_kind is float:
            value_bytes = b"d" + _pack_double(value)
        else:
            value_bytes = _encode_fast(value)
        state = copy()
        state.update(
            b"t2%d:%b%d:%b" % (len(key_bytes), key_bytes, len(value_bytes), value_bytes)
        )
        hashed = int.from_bytes(state.digest(), "big")
        acc ^= hashed
        if kind is tuple and memo is not None:
            memo[pair] = hashed
    return acc


def entry_hasher(key: Any, *, salt: str = "") -> Callable[[Any], int]:
    """Return ``h`` with ``h(value) == stable_hash((key, value), salt=salt)``.

    The encoding of a pair starts with ``t2`` and the framed key whatever
    the value is, so the key is encoded and absorbed once, here, and each
    call finishes a copy of that state with the value's frame.  For the
    caller that hashes one key against several values; the state lives as
    long as the returned function.  (A float key shares nothing: whether
    the pair is a block depends on the value.)
    """
    if type(key) is float:
        return lambda value: stable_hash((key, value), salt=salt)
    key = _encode_fast(key)
    keyed = (_PROTOTYPES.get(salt) or _new_prototype(salt)).copy()
    keyed.update(b"t2%d:%b" % (len(key), key))

    def finish(value: Any) -> int:
        value = _encode_fast(value)
        state = keyed.copy()
        state.update(b"%d:%b" % (len(value), value))
        return int.from_bytes(state.digest(), "big")

    return finish


def stable_hash_pair(left: int, right: int, *, salt: str = "") -> int:
    """Combine two 64-bit ids into one, stably.

    This is the identity function used for internal contraction-tree nodes:
    a node's content id is a function of its children's content ids, so two
    nodes computed from identical inputs share a memo entry.
    """
    return stable_hash((left, right), salt=salt)


def content_id(*parts: Any) -> int:
    """Return a stable content id for a sequence of hashable parts."""
    return stable_hash(tuple(parts), salt="cid")


def fingerprint_bytes(payload: bytes, *, salt: str = "ckpt") -> str:
    """Return a hex digest fingerprinting a raw byte payload.

    Used for checkpoint segments, where the unit of verification is the
    serialized blob rather than a structured value; 16 bytes of BLAKE2b is
    ample for integrity (we defend against bit rot and truncation, not an
    adversary).
    """
    return hashlib.blake2b(
        payload, digest_size=16, person=salt.encode("utf-8")[:16]
    ).hexdigest()
