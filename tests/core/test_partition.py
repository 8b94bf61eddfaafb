"""Unit tests for the Partition algebra."""

import pytest

from repro.core.partition import Partition, combine_partitions
from repro.mapreduce.combiners import (
    KSmallestCombiner,
    SetUnionCombiner,
    SumCombiner,
)
from repro.metrics import Phase
from repro.telemetry import Telemetry


def test_empty_partition_is_falsy():
    assert not Partition.empty()
    assert len(Partition.empty()) == 0


def test_partition_uid_is_content_based():
    a = Partition({"x": 1, "y": 2})
    b = Partition({"y": 2, "x": 1})
    assert a.uid == b.uid
    assert a == b


def test_partition_uid_differs_for_different_content():
    assert Partition({"x": 1}).uid != Partition({"x": 2}).uid
    assert Partition({"x": 1}).uid != Partition({"y": 1}).uid


def test_combine_sums_per_key():
    combiner = SumCombiner()
    a = Partition({"x": 1, "y": 2})
    b = Partition({"x": 10, "z": 5})
    out = combine_partitions([a, b], combiner)
    assert out.entries == {"x": 11, "y": 2, "z": 5}


def test_combine_is_associative_over_three_parts():
    combiner = SumCombiner()
    parts = [Partition({"k": v}) for v in (1, 2, 3)]
    left = combine_partitions(
        [combine_partitions(parts[:2], combiner), parts[2]], combiner
    )
    right = combine_partitions(
        [parts[0], combine_partitions(parts[1:], combiner)], combiner
    )
    assert left.entries == right.entries


def test_combine_skips_empty_partitions():
    combiner = SumCombiner()
    a = Partition({"x": 1})
    out = combine_partitions([Partition.empty(), a, Partition.empty()], combiner)
    assert out is a


def test_combine_of_nothing_is_empty():
    assert not combine_partitions([], SumCombiner())


def test_combine_charges_meter():
    telemetry = Telemetry(label="t")
    a = Partition({"x": 1, "y": 1})
    b = Partition({"x": 1})
    combine_partitions([a, b], SumCombiner(), telemetry=telemetry)
    assert telemetry.by_phase[Phase.CONTRACTION] > 0


def test_combine_cost_factor_scales_work():
    a = Partition({"x": 1})
    b = Partition({"x": 2})
    plain, scaled = Telemetry(label="plain"), Telemetry(label="scaled")
    combine_partitions([a, b], SumCombiner(), telemetry=plain)
    combine_partitions([a, b], SumCombiner(), telemetry=scaled, cost_factor=3.0)
    assert scaled.total() == pytest.approx(3.0 * plain.total())


def test_from_value_lists_applies_combiner():
    combiner = SumCombiner()
    part = Partition.from_value_lists({"a": [1, 2, 3], "b": [4]}, combiner)
    assert part.entries == {"a": 6, "b": 4}


def test_set_union_partition_uid_stable_under_set_order():
    combiner = SetUnionCombiner()
    a = Partition({"k": frozenset({"u1", "u2"})})
    b = Partition({"k": frozenset({"u2", "u1"})})
    assert a.uid == b.uid
    merged = combine_partitions([a, Partition({"k": frozenset({"u3"})})], combiner)
    assert merged.get("k") == frozenset({"u1", "u2", "u3"})


def test_ksmallest_combine_keeps_k():
    combiner = KSmallestCombiner(k=2)
    a = Partition({"q": ((1.0, "a"), (5.0, "b"))})
    b = Partition({"q": ((0.5, "c"), (9.0, "d"))})
    out = combine_partitions([a, b], combiner)
    assert out.get("q") == ((0.5, "c"), (1.0, "a"))


def test_record_weight_uses_value_size():
    combiner = KSmallestCombiner(k=3)
    part = Partition({"q": ((1.0, "a"), (2.0, "b"))})
    assert part.record_weight(combiner) == 2.0


def test_a_partition_hashes_by_uid_and_equals_only_partitions():
    first, same = Partition({"a": 1}), Partition({"a": 1})
    assert hash(first) == hash(first.uid)
    assert {first, same} == {first}
    assert first != {"a": 1}
