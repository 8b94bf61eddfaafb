"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import sys

import pytest

from repro.common import hashing
from repro.common.rng import RngStream
from repro.core.partition import Partition
from repro.mapreduce.combiners import SumCombiner


@pytest.fixture
def rng() -> RngStream:
    return RngStream(seed=1234, name="tests")


@pytest.fixture
def sum_combiner() -> SumCombiner:
    return SumCombiner()


def counts_partition(pairs: dict) -> Partition:
    """Build a Partition of key -> count entries."""
    return Partition(dict(pairs))


def leaf_seq(values: list[int]) -> list[Partition]:
    """One single-key partition per value; roots then sum the values.

    Each leaf also carries a unique positional key so leaves are
    distinguishable (distinct uids) even when values repeat.
    """
    return [
        Partition({"total": value, ("leaf", index): 1})
        for index, value in enumerate(values)
    ]


def root_total(partition: Partition) -> int:
    """The summed 'total' key of a root built from leaf_seq leaves."""
    return partition.get("total", 0)


class _CountedState:
    """A BLAKE2b state that logs what is made of it: its salt at every
    ``digest`` and, at an ``update`` that opens a pair's encoding
    (``t2``, then the key's framed bytes), the key's bytes.  Its copies
    log too, so a keyed hasher's finishes count as digests."""

    def __init__(self, state, salt: str, digests: list, keyings: list) -> None:
        self._state, self._salt = state, salt
        self._digests, self._keyings = digests, keyings

    def copy(self) -> "_CountedState":
        return _CountedState(
            self._state.copy(), self._salt, self._digests, self._keyings
        )

    def update(self, data: bytes) -> None:
        if data.startswith(b"t2"):
            length, _, rest = data[2:].partition(b":")
            self._keyings.append(rest[: int(length)])
        self._state.update(data)

    def digest(self) -> bytes:
        self._digests.append(self._salt)
        return self._state.digest()


def count_digests(monkeypatch) -> tuple[list, list]:
    """Count fingerprint hashing at the bottom, whatever spelling made it:
    ``digests`` gets the salt of every length (``"pfp"``) and entry
    (``"pent"``) digest made, and ``keyings`` the encoded key of every pair
    encoding begun -- once a flat entry hash, once a keyed hasher however
    many values it then finishes.  Wraps the two salts' prototype states,
    which every digest starts from a copy of."""
    digests: list[str] = []
    keyings: list[bytes] = []
    for salt in ("pfp", "pent"):
        real = hashing._PROTOTYPES.get(salt) or hashing._new_prototype(salt)
        counted = _CountedState(real, salt, digests, keyings)
        monkeypatch.setitem(hashing._PROTOTYPES, salt, counted)
    return digests, keyings


def profile_calls(thunk, watched=None) -> tuple:
    """``thunk()``'s result, its ``call`` + ``c_call`` profile events, and
    how many of the calls ran the code object ``watched``: interpreter
    work as a count, not a clock.  The collector is held off meanwhile: a
    collection mid-thunk would run finalizers of earlier tests' garbage
    and count their calls too."""
    events = hits = 0

    def on_event(frame, event, arg) -> None:
        nonlocal events, hits
        if event == "call" or event == "c_call":
            events += 1
            if event == "call" and frame.f_code is watched:
                hits += 1

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(on_event)
    try:
        result = thunk()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return result, events, hits
