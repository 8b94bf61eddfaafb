"""Stable, process-independent hashing.

Python's builtin :func:`hash` is randomized per process for strings, which
would make tree shapes and memo hits non-reproducible.  All identity used by
memo tables and randomized tree coin flips goes through the helpers here,
which are based on BLAKE2b and therefore stable across runs and platforms.

What is hashed is a tagged encoding of the value -- uid encoding 2; DESIGN
"Key design decisions" 3 has the table of tags and the rulings on floats.
This module keeps the encoder (``encode_key``), the byte formats of an
entry's encoding (``FRAMED``, ``ENTRY_HEAD``, ``ENTRY_FRAME``), the salts'
prototype states (``prototype``) and the value-level hashes:
``stable_hash``, ``content_id`` and ``fingerprint_bytes``.  The entry side
of a partition's identity -- entry hashes, their memo and the kernels that
fold them -- is ``repro.core.identity``'s.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any

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
            # The exact str and int items of a key are encoded here, as
            # above, rather than by a call apiece.
            item_kind = type(item)
            if item_kind is str:
                encoded = b"s" + item.encode("utf-8")
            elif item_kind is int:
                encoded = b"i%d" % item
            else:
                encoded = _encode_fast(item)
            parts.append(b"%d:" % len(encoded))
            parts.append(encoded)
        return b"".join(parts)
    return _encode(value)


#: salt -> keyed BLAKE2b state with nothing hashed yet.  Salts are string
#: literals at the call sites, so this holds a couple of dozen entries;
#: every hash starts from a ``.copy()`` and the prototypes never change.
_PROTOTYPES: dict[str, Any] = {}


def prototype(salt: str) -> Any:
    """The keyed BLAKE2b state every hash under ``salt`` starts from a
    ``.copy()`` of; never update it."""
    state = _PROTOTYPES.get(salt)
    if state is None:
        state = _PROTOTYPES[salt] = hashlib.blake2b(
            digest_size=_HASH_BYTES, person=salt.encode("utf-8")[:16]
        )
    return state


#: The bytes every hash of a key starts from: a map task makes them once
#: and finishes both the key's route and its entry's hash from them.
encode_key = _encode_fast


def hash_encoded(encoded: bytes, *, salt: str = "") -> int:
    """``stable_hash(value, salt=salt)`` from ``encode_key(value)``."""
    state = (_PROTOTYPES.get(salt) or prototype(salt)).copy()
    state.update(encoded)
    return int.from_bytes(state.digest(), "big")


#: A sequence item's bytes framed by their length, ``<len>:<bytes>``.
FRAMED = b"%d:%b"
#: The bytes of an entry ``(key, value)`` are the pair's encoding: ``t2``,
#: then the key's and the value's own bytes, each framed.  Every spelling
#: of an entry hash (``repro.core.identity``) builds them from these two.
ENTRY_HEAD = b"t2" + FRAMED
ENTRY_FRAME = ENTRY_HEAD + FRAMED


def stable_hash(value: Any, *, salt: str = "") -> int:
    """Return a stable 64-bit hash of ``value``.

    The optional ``salt`` derives independent hash families from the same
    input (used e.g. for per-level coin flips in the randomized folding
    tree).
    """
    return hash_encoded(_encode_fast(value), salt=salt)


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
