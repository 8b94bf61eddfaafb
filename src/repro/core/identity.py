"""The entry side of a partition's identity: a uid is a length term
(``repro.core.partition``) XOR one ``"pent"`` digest an entry,
``stable_hash((key, value), salt="pent")``, and every spelling of that
digest is here.  A uid is made in one fold of a partition's entries, or
of many partitions' at once (the restore sweep): the flat fold,
:func:`xor_flat_entry_hashes`, whose pairs :func:`pair_digests` digests,
where the entries qualify, else :func:`xor_entry_hashes`, the general
kernel.  :func:`entry_hash` is the reference both are tested against.
"""

from __future__ import annotations

from itertools import chain, count, repeat
from operator import is_
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.common.hashing import ENTRY_FRAME, ENTRY_HEAD, FRAMED
from repro.common.hashing import encode_key, prototype, stable_hash

#: The item types of a flat tuple key, compared by exact type.
FLAT_ITEMS = frozenset((str, int))


def by_value(key: Any) -> bool:
    """The by-value rule of the flat fold and of the restore sweep's entry
    memo: an entry with an exact ``int`` value (the caller tests it) is
    taken when ``key`` is an exact ``str`` or ``int`` or a flat tuple of
    them.  ``True == 1`` and ``1.0 == 1`` but encode as ``o1`` and
    ``d...``: a ``bool``, float or subclass, or a nested tuple, keeps an
    entry off.  An exact-type loop: 0.25 us on a ``(str, str)`` key, 0.29
    us for ``FLAT_ITEMS.issuperset(map(type, key))`` (0.28 / 0.48 on two
    ints)."""
    kind = type(key)
    if kind is str or kind is int:
        return True
    if kind is not tuple:
        return False
    for item in key:
        kind = type(item)
        if kind is not str and kind is not int:
            return False
    return True


def entry_hash(key: Any, value: Any, *, salt: str = "") -> int:
    """``stable_hash((key, value), salt=salt)``, the reference every other
    spelling of an entry hash is held to, without building the pair: the
    key's and the value's bytes, framed (two floats are a block, and go
    the long way)."""
    if type(key) is float and type(value) is float:
        return stable_hash((key, value), salt=salt)
    key, value = encode_key(key), encode_key(value)
    state = prototype(salt).copy()
    state.update(ENTRY_FRAME % (len(key), key, len(value), value))
    return int.from_bytes(state.digest(), "big")


class _Frames(dict):
    """An item of a flat key, or a value, -> its bytes, framed, made by
    ``encode_key`` (the rules' one home) at its first lookup."""

    def __missing__(self, item: Any) -> bytes:
        encoded = encode_key(item)
        framed = self[item] = FRAMED % (len(encoded), encoded)
        return framed


def pair_digests(
    pairs: Iterable[tuple[Any, Any]], *, salt: str = "pent"
) -> list[bytes]:
    """``entry_hash(key, value, salt=salt)`` as 8 big-endian digest bytes
    for each ``(key, value)`` of ``pairs``, in order: the flat fold's pair
    digester.  Every key is one :func:`by_value` takes and every value an
    exact ``int`` (the caller checks).  Keys and values recur across the
    fold's pairs, so each distinct key's head and value's frame is made
    once a call, a flat tuple key's item by item, each distinct item once
    (that saves about 1 us of ``encode_key`` a ``(str, str)`` key): a pair
    is then a head and a frame.
    """
    copy = prototype(salt).copy
    digests: list[bytes] = []
    append = digests.append
    frame = _Frames().__getitem__
    heads: dict[Any, bytes] = {}
    for key, value in pairs:
        head = heads.get(key)
        if head is None:
            if type(key) is tuple:
                # ``t<n>``: a sequence's header, as the encoder writes it.
                code = b"t%d%b" % (len(key), b"".join(map(frame, key)))
            else:
                code = encode_key(key)
            head = heads[key] = ENTRY_HEAD % (len(code), code)
        state = copy()
        state.update(head + frame(value))
        append(state.digest())
    return digests


def xor_entry_hashes(
    mappings: Iterable[Mapping[Any, Any]],
    *,
    salt: str,
    memo: dict[tuple[Any, Any], int] | None = None,
) -> list[int]:
    """For each of ``mappings``, in order, the XOR of
    ``entry_hash(key, value, salt=salt)`` over its entries: the general
    kernel, one loop for any mapping, one or many in a call.  Keys of
    exact ``str``, ``int`` or ``tuple`` type are encoded and framed here
    with their values, into the bytes ``entry_hash`` makes; any other key
    (a ``float`` one, ``bool`` and every subclass) goes through
    ``entry_hash`` itself.  It pays about 0.6 us of Python a held entry on
    tuple keys, which the flat fold does at C level; on str keys, inline,
    about 0.2 us, where reducer-wide C-level passes were 1.35x slower
    (EXPERIMENTS § "A restore that pays per distinct key").

    ``memo`` belongs to the caller, maps an entry to its hash, and is read
    before hashing and written after, for three kinds of entry:

    - an exact ``str`` key with an exact ``int`` value, by value.
    - a ``tuple`` key, by identity: ``(id(key), id(value))``.  That is
      sound only while every key and value it has seen stays alive and
      unmodified, so that an id names one content.
    - a flat tuple key (:func:`by_value`) with an exact ``int`` value, by
      value too, after an identity miss; a hit is remembered by identity.

    The three never collide: an identity key is two ints, and a str or a
    tuple never equals an int -- which is why an ``int`` key, which
    :func:`by_value` takes, stays off here.  Any other entry is hashed
    every time.
    """
    copy = prototype(salt).copy
    # Bound once: a str-keyed memo hit is the restore sweep's commonest step.
    recall = None if memo is None else memo.get
    folded = []
    for entries in mappings:
        acc = 0
        for key, value in entries.items():
            kind = type(key)
            if kind is str:  # by value, as any str key is
                if recall is not None and type(value) is int:
                    pair: tuple[Any, Any] = (key, value)
                    known = recall(pair)
                    if known is not None:
                        acc ^= known
                        continue
                key_bytes = b"s" + key.encode("utf-8")
            elif kind is int:
                key_bytes = b"i%d" % key
            elif kind is tuple:
                if memo is not None:
                    pair = (id(key), id(value))
                    known = memo.get(pair)
                    flat: tuple[Any, Any] | None = None
                    if known is None and type(value) is int and by_value(key):
                        flat = (key, value)
                        known = memo.get(flat)
                        if known is not None:
                            memo[pair] = known
                    if known is not None:
                        acc ^= known
                        continue
                key_bytes = encode_key(key)
            else:
                acc ^= entry_hash(key, value, salt=salt)
                continue
            value_kind = type(value)
            value_bytes = b"i%d" % value if value_kind is int else encode_key(value)
            state = copy()
            state.update(
                ENTRY_FRAME % (len(key_bytes), key_bytes, len(value_bytes), value_bytes)
            )
            hashed = int.from_bytes(state.digest(), "big")
            acc ^= hashed
            # ``memo`` first: the one test an entry pays when there is none.
            if memo is not None:
                if kind is tuple:
                    memo[pair] = hashed
                    if flat is not None:
                        memo[flat] = hashed
                elif kind is str and value_kind is int:
                    memo[pair] = hashed
        folded.append(acc)
    return folded


def xor_flat_entry_hashes(
    mappings: Sequence[dict[Any, Any]], *, salt: str
) -> list[int] | None:
    """``xor_entry_hashes(mappings, salt=salt)`` when every key is a flat
    tuple and every value an exact ``int``, else ``None`` (C-level type
    scans decide, keys first).  One ``dict.setdefault`` pass maps each
    distinct pair to the place it is first held, :func:`pair_digests`
    digests each distinct pair once, and ``numpy`` folds each mapping's
    XOR over the size offsets (an empty mapping's is 0): no Python step is
    taken an entry, only a distinct pair."""
    if not all(map(is_, map(type, chain.from_iterable(mappings)), repeat(tuple))):
        return None
    keys = list(chain.from_iterable(mappings))
    if not FLAT_ITEMS.issuperset(map(type, chain.from_iterable(keys))):
        return None
    values = list(chain.from_iterable(map(dict.values, mappings)))
    if not all(map(is_, map(type, values), repeat(int))):
        return None
    # Each distinct pair -> the place it is first held, which gets its
    # digest; every entry then takes the digest at its pair's place.
    first: dict[tuple[Any, int], int] = {}
    places = map(first.setdefault, zip(keys, values), count())
    held_at = np.fromiter(places, np.intp, len(keys))
    digests = pair_digests(first, salt=salt)
    hashes = np.zeros(len(keys), np.uint64)
    hashes[np.fromiter(first.values(), np.intp, len(first))] = np.frombuffer(
        b"".join(digests), ">u8"
    )
    hashes = hashes[held_at]
    sizes = np.fromiter(map(len, mappings), np.intp, len(mappings))
    held = sizes > 0
    folded = np.zeros(len(mappings), np.uint64)
    folded[held] = np.bitwise_xor.reduceat(hashes, (np.cumsum(sizes) - sizes)[held])
    return folded.tolist()
