"""Structural float-tolerant equality (repro.common.approx)."""

from repro.common.approx import approx_equal


def test_floats_within_the_scaled_tolerance_are_equal():
    assert approx_equal((0.1 + 0.2, {"k": [1.0]}), (0.3, {"k": [1.0 + 1e-12]}))
    assert not approx_equal(0.3, 0.31)


def test_containers_of_different_types_differ():
    assert not approx_equal((1.0,), [1.0])
    assert not approx_equal({"k": 1}, [("k", 1)])


def test_sets_compare_exactly():
    assert approx_equal(frozenset({1, 2}), frozenset({2, 1}))
    assert not approx_equal({0.3}, {0.1 + 0.2})
