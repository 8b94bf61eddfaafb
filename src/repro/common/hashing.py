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
from itertools import chain, count, repeat
from operator import is_, itemgetter
from typing import Any, Callable, Collection, Iterable, Mapping, Sequence

import numpy as np

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


#: A sequence item's bytes framed by their length, ``<len>:<bytes>``.
_FRAMED = b"%d:%b"
#: The bytes of an entry ``(key, value)`` are the pair's encoding: ``t2``,
#: then the key's and the value's own bytes, each framed.  Every spelling
#: of an entry hash builds them from these two formats.
_ENTRY_HEAD = b"t2" + _FRAMED
_ENTRY_FRAME = _ENTRY_HEAD + _FRAMED


def entry_hash_encoded(key: bytes, value: Any, *, salt: str = "") -> int:
    """``entry_hash`` from ``encode_key(key)``: ``t2``, then key and value each
    framed by its length.  Not for a ``float`` key (a block, with a float)."""
    value = _encode_fast(value)
    state = (_PROTOTYPES.get(salt) or _new_prototype(salt)).copy()
    state.update(_ENTRY_FRAME % (len(key), key, len(value), value))
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


#: The item types of a flat tuple key, compared by exact type.
FLAT_ITEMS = frozenset((str, int))


def by_value(key: Any) -> bool:
    """The by-value rule of every entry memo (``xor_entry_hashes``' and
    :class:`EntryHashes`): an entry with an exact ``int`` value (tested by
    the caller) may be remembered by value when ``key`` is an exact ``str``
    or ``int`` or a flat tuple of them.  ``True == 1`` and ``1.0 == 1`` but
    encode as ``o1`` and ``d...``: a ``bool``, float or subclass, or a
    nested tuple, keeps an entry off."""
    kind = type(key)
    flat = kind is tuple and FLAT_ITEMS.issuperset(map(type, key))
    return kind is str or kind is int or flat


class EntryHashes:
    """``"pent"`` entry hashes by value for ``repro.core.partition.
    combined_uid``: ``key`` -> ``value`` -> ``entry_hash(key, value,
    salt="pent")``, for pairs :func:`by_value` takes (keyed twice, so a
    lookup builds no pair and the inner dicts of ints go untracked by the
    collector).  Two generations of at most ``ENTRY_GENERATION`` pairs: a
    miss goes into ``young``, a full ``young`` becomes ``old`` (dropping
    the old ``old``), and a hit in ``old`` moves to ``young``.  A hit is
    the hash of the pair's own bytes, so no uid depends on what the memo
    holds.  It is a process's own: never pickled, checkpointed or shipped."""

    __slots__ = ("young", "old", "size")

    def __init__(self) -> None:
        self.young: dict[Any, dict[int, int]] = {}
        self.old: dict[Any, dict[int, int]] = {}
        self.size = 0  # pairs ``young`` holds

    def put(self, key: Any, value: int, hashed: int) -> dict[int, int]:
        """Remember ``hashed`` for ``(key, value)``; returns ``key``'s
        values in ``young``.  A str key is stored as a str of the memo's
        own: a map task interns its str keys, and a bounded cache must not
        keep one alive.  No map task interns an int or tuple key."""
        young = self.young
        hashes = young.get(key)
        if hashes is None:
            if type(key) is str:
                key = "".join((key, ""))  # a new str
            hashes = young[key] = {}
        hashes[value] = hashed
        self.size += 1
        if self.size == ENTRY_GENERATION:
            self.old, self.young, self.size = young, {}, 0
        return hashes

    def xor(self, entries: Mapping[Any, Any]) -> int:
        """The XOR of the entry hashes of ``entries``: each by-value entry
        from the memo, any other -- every one, unless each value is an
        exact ``int`` (kmeans' vectors) -- by ``xor_entry_hashes``."""
        if not all(map(is_, map(type, entries.values()), repeat(int))):
            return xor_entry_hashes((entries,), salt="pent")[0]
        young, old = self.young, self.old
        acc = 0
        rest: dict[Any, Any] = {}
        for key, value in entries.items():
            if by_value(key):
                hashes = young.get(key)
                hashed = None if hashes is None else hashes.get(value)
                if hashed is None:
                    aged = old.get(key)
                    hashed = None if aged is None else aged.pop(value, None)
                    if hashed is None:
                        hashed = entry_hash(key, value, salt="pent")
                    self.put(key, value, hashed)
                    young, old = self.young, self.old  # a put may turn over
                acc ^= hashed
            else:
                rest[key] = value
        if rest:
            acc ^= xor_entry_hashes((rest,), salt="pent")[0]
        return acc

    def xor_merged(self, merged: Iterable[Any], entries: Mapping[Any, Any]) -> int:
        """The XOR of the entry hashes of each ``(key, values)`` of
        ``merged`` with each of ``values`` and ``entries[key]``: a
        by-value pair from the memo, and each key encoded at most once."""
        young, old = self.young, self.old
        acc = 0
        for key, values in merged:
            keyed = by_value(key)
            hashes = young.get(key) if keyed else None
            hash_with_key = None
            for value in (*values, entries[key]):
                if keyed and type(value) is int:
                    hashed = None if hashes is None else hashes.get(value)
                    if hashed is None:
                        aged = old.get(key)
                        hashed = None if aged is None else aged.pop(value, None)
                        if hashed is None:
                            if hash_with_key is None:
                                hash_with_key = entry_hasher(key, salt="pent")
                            hashed = hash_with_key(value)
                        hashes = self.put(key, value, hashed)
                        young, old = self.young, self.old
                    acc ^= hashed
                    continue
                if hash_with_key is None:
                    hash_with_key = entry_hasher(key, salt="pent")
                acc ^= hash_with_key(value)
        return acc


#: Pairs a generation.  Steady hit rates at 2 048 / 4 096 / 8 192 (EXPERIMENTS
#: § "A fresh fingerprint reads the entry memo"): matrix 65.5 / 92.8 / 97.6 %;
#: hct 82.5 / 94.2 / 95.3 % at window 40, 46.4 / 55.0 / 64.7 % at 1 000.
ENTRY_GENERATION = 4096

#: The one memo ``combined_uid`` reads and fills.
ENTRY_HASHES = EntryHashes()


def xor_entry_hashes(
    mappings: Iterable[Mapping[Any, Any]],
    *,
    salt: str,
    memo: dict[tuple[Any, Any], int] | None = None,
) -> list[int]:
    """For each of ``mappings``, in order, the XOR of
    ``entry_hash(key, value, salt=salt)`` over its entries.

    The one loop that fingerprints mappings, one or many in a call.  Keys
    of exact ``str``, ``int`` or ``tuple`` type and values of exact
    ``int`` or ``float`` type are encoded and framed here, into the bytes
    ``entry_hash`` makes; any other key (a ``float`` one, ``bool`` and
    every subclass) goes through ``entry_hash`` itself, and any other
    value through ``_encode_fast``.

    ``memo`` belongs to the caller, maps an entry to its hash, and is read
    before hashing and written after, for three kinds of entry:

    - an exact ``str`` key with an exact ``int`` value, by value:
      ``(key, value)`` (:func:`by_value`).
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
    copy = (_PROTOTYPES.get(salt) or _new_prototype(salt)).copy
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
                _ENTRY_FRAME
                % (len(key_bytes), key_bytes, len(value_bytes), value_bytes)
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


def _flat_entry_digests(
    pairs: Collection[tuple[tuple[Any, ...], int]], *, salt: str
) -> bytes:
    """``entry_hash(key, value, salt=salt)`` for each of ``pairs``, in order,
    as its 8 big-endian digest bytes, all joined into one ``bytes``: for a
    caller that folds them in bulk.  Every key is a flat tuple (exact
    ``FLAT_ITEMS`` items) and every value an exact ``int`` -- the caller
    checks that.

    Such a key's bytes are ``t<n>`` and its items' own, each framed, so
    each distinct item and value is encoded (by ``_encode_fast``, the
    rules' one home) and framed once a call, and each distinct key's
    entry head once; an entry is then its key's head and its value's
    frame.  ``xor_entry_hashes`` makes the same bytes with an
    ``_encode_fast`` call a key: about 1.5 us on matrix's ``(str, str)``
    keys, against 0.5 us for the BLAKE2b work itself.
    """
    frames: dict[Any, bytes] = {}
    for item in set(chain.from_iterable(map(itemgetter(0), pairs))).union(
        map(itemgetter(1), pairs)
    ):
        encoded = _encode_fast(item)
        frames[item] = _FRAMED % (len(encoded), encoded)
    frame = frames.__getitem__
    heads: dict[tuple[Any, ...], bytes] = {}
    copy = (_PROTOTYPES.get(salt) or _new_prototype(salt)).copy
    digests: list[bytes] = []
    for key, value in pairs:
        head = heads.get(key)
        if head is None:
            # ``t<n>``: a sequence's header, as ``_encode_sequence`` writes it.
            key_bytes = b"t%d%b" % (len(key), b"".join(map(frame, key)))
            head = heads[key] = _ENTRY_HEAD % (len(key_bytes), key_bytes)
        state = copy()
        state.update(head + frames[value])
        digests.append(state.digest())
    return b"".join(digests)


def xor_flat_entry_hashes(
    mappings: Sequence[dict[Any, Any]], *, salt: str
) -> list[int] | None:
    """``xor_entry_hashes(mappings, salt=salt)`` when every key is a flat
    tuple (exact ``FLAT_ITEMS`` items) and every value an exact ``int``,
    else ``None``.  C-level type scans decide, keys first, so a str-keyed
    set of mappings leaves at its first key.  Such entries are hashed by
    value, as the loop's memo hashes them: one ``dict.setdefault`` pass
    maps each distinct pair to the place it is first held, each distinct
    pair is digested once by ``_flat_entry_digests``, and each mapping's
    XOR is folded by ``numpy`` over the size offsets (an empty mapping's
    is 0).  No Python step is taken an entry, only a distinct pair."""
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
    hashes = np.zeros(len(keys), np.uint64)
    hashes[np.fromiter(first.values(), np.intp, len(first))] = np.frombuffer(
        _flat_entry_digests(first, salt=salt), ">u8"
    )
    hashes = hashes[held_at]
    sizes = np.fromiter(map(len, mappings), np.intp, len(mappings))
    held = sizes > 0
    folded = np.zeros(len(mappings), np.uint64)
    folded[held] = np.bitwise_xor.reduceat(hashes, (np.cumsum(sizes) - sizes)[held])
    return folded.tolist()


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
    keyed.update(_ENTRY_HEAD % (len(key), key))

    def finish(value: Any) -> int:
        value = _encode_fast(value)
        state = keyed.copy()
        state.update(_FRAMED % (len(value), value))
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
