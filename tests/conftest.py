"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import sys

import pytest

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
