"""The entry side of a partition's identity: a uid is a length term
(``repro.core.partition``) XOR one ``"pent"`` digest an entry,
``stable_hash((key, value), salt="pent")``, and every spelling of that
digest is here.  :func:`pair_digests` is the one by-value pair digester:
a map task's leaf, the combine's entry memo's misses and the restore
sweep's flat fold.  :func:`xor_entry_hashes` is the general kernel, and
:func:`entry_hash` the reference both are tested against.
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
    """The by-value rule of the digester and of every entry memo: an entry
    with an exact ``int`` value (the caller tests it) is taken when ``key``
    is an exact ``str`` or ``int`` or a flat tuple of them.  ``True == 1``
    and ``1.0 == 1`` but encode as ``o1`` and ``d...``: a ``bool``, float
    or subclass, or a nested tuple, keeps an entry off.  An exact-type
    loop: 0.25 us on a ``(str, str)`` key, against 0.29 us for
    ``FLAT_ITEMS.issuperset(map(type, key))`` (0.28 / 0.48 on two ints)."""
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
    pairs: Iterable[tuple[Any, Any]],
    *,
    salt: str = "pent",
    encoded: Mapping[Any, bytes] | None = None,
    recurring: bool = False,
) -> list[bytes]:
    """``entry_hash(key, value, salt=salt)`` as 8 big-endian digest bytes
    for each ``(key, value)`` of ``pairs``, in order: the by-value pair
    digester.  Every key is one :func:`by_value` takes and every value an
    exact ``int`` (the caller checks), but for two callers:

    - a map task's leaf hands its route bytes in ``encoded`` and any
      entry: each is one ``update`` of the key's bytes and its value's,
      encoded as met, but a float key's with a float value, a block,
      which is :func:`entry_hash`'s;
    - the entry memo's delta hands a key met with several values a
      ``dict`` of them in place of a value: the key's head (``t2``, the
      framed key) is absorbed once into a keyed state, which each value
      (a key of the dict, in order) finishes a copy of.

    Where keys and values recur across pairs (the restore fold's),
    ``recurring`` makes each distinct key's head and value's frame once a
    call, a flat tuple key's item by item, each distinct item once (that
    saves about 1 us of ``encode_key`` a ``(str, str)`` key): a pair is
    then a head and a frame.
    """
    copy = prototype(salt).copy
    digests: list[bytes] = []
    append = digests.append
    if encoded is not None:
        for key, value in pairs:
            if type(value) is float and type(key) is float:
                append(entry_hash(key, value, salt=salt).to_bytes(8, "big"))
                continue
            key, value = encoded[key], encode_key(value)
            state = copy()
            state.update(ENTRY_FRAME % (len(key), key, len(value), value))
            append(state.digest())
    elif recurring:
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
    else:
        for key, value in pairs:
            key = encode_key(key)
            if type(value) is not dict:
                value = encode_key(value)
                state = copy()
                state.update(ENTRY_FRAME % (len(key), key, len(value), value))
                append(state.digest())
                continue
            keyed = copy()
            keyed.update(ENTRY_HEAD % (len(key), key))
            for each in value:
                each = encode_key(each)
                state = keyed.copy()
                state.update(FRAMED % (len(each), each))
                append(state.digest())
    return digests


def xor_leaf(entries: Mapping[Any, Any], encoded: Mapping[Any, bytes] | None) -> int:
    """The XOR of the entry hashes of a map task's leaf: every entry's by
    :func:`pair_digests` from ``encoded`` (key -> its route bytes), or by
    the kernel where the caller made none.  It reads no memo."""
    if encoded is None:
        return xor_entry_hashes((entries,), salt="pent")[0]
    acc = 0
    for digest in pair_digests(entries.items(), encoded=encoded):
        acc ^= int.from_bytes(digest, "big")
    return acc


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
        from the memo (those it lacks digested together, then put in), any
        other -- every one, unless each value is an exact ``int`` (kmeans'
        vectors) -- by ``xor_entry_hashes``."""
        if not all(map(is_, map(type, entries.values()), repeat(int))):
            return xor_entry_hashes((entries,), salt="pent")[0]
        young, old = self.young, self.old
        acc = 0
        lacking: dict[Any, int] = {}  # the pairs the memo lacks
        rest: dict[Any, Any] | None = None
        for key, value in entries.items():
            if by_value(key):
                hashes = young.get(key)
                hashed = None if hashes is None else hashes.get(value)
                if hashed is None:
                    aged = old.get(key)
                    hashed = None if aged is None else aged.pop(value, None)
                    if hashed is None:
                        lacking[key] = value
                        continue
                    self.put(key, value, hashed)
                    young, old = self.young, self.old  # a put may turn over
                acc ^= hashed
            else:
                if rest is None:
                    rest = {}
                rest[key] = value
        if lacking:
            pairs = lacking.items()
            for (key, value), digest in zip(pairs, pair_digests(pairs)):
                hashed = int.from_bytes(digest, "big")
                self.put(key, value, hashed)
                acc ^= hashed
        if rest:
            acc ^= xor_entry_hashes((rest,), salt="pent")[0]
        return acc

    def xor_merged(self, merged: Iterable[Any], entries: Mapping[Any, Any]) -> int:
        """The XOR of the entry hashes of each ``(key, values)`` of
        ``merged`` with each of ``values`` and ``entries[key]``: a
        by-value pair from the memo, any other by the kernel.  The pairs
        the memo lacks are digested together after the lookups, a key's
        from one encoding of it, and put in then; a pair met twice is
        digested once (and cancels)."""
        young, old = self.young, self.old
        acc = 0
        lacking: list[tuple[Any, dict[int, bool]]] = []  # key -> value -> odd?
        others: list[dict[Any, Any]] = []
        for key, values in merged:
            keyed = by_value(key)
            hashes = young.get(key) if keyed else None
            missing: dict[int, bool] | None = None
            for value in (*values, entries[key]):
                if not keyed or type(value) is not int:
                    others.append({key: value})
                    continue
                hashed = None if hashes is None else hashes.get(value)
                if hashed is None:
                    aged = old.get(key)
                    hashed = None if aged is None else aged.pop(value, None)
                    if hashed is None:
                        if missing is None:
                            missing = {}
                            lacking.append((key, missing))
                        missing[value] = not missing.get(value, False)
                        continue
                    hashes = self.put(key, value, hashed)
                    young, old = self.young, self.old
                acc ^= hashed
        if lacking:
            digests = iter(pair_digests(lacking))
            for key, parity in lacking:
                for value, odd in parity.items():
                    hashed = int.from_bytes(next(digests), "big")
                    self.put(key, value, hashed)
                    if odd:
                        acc ^= hashed
        if others:
            for hashed in xor_entry_hashes(others, salt="pent"):
                acc ^= hashed
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
    digests = pair_digests(first, salt=salt, recurring=True)
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
