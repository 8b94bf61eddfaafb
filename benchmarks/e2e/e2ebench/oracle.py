"""The output oracle: incremental outputs against a from-scratch batch run.

``Slider.verify_outputs()`` compares with ``==`` and so raises on kmeans
after any advance: the incremental and the batch path add the same
floats in a different order and differ in the last digits.  This oracle
demands the same key set, and per value either equality or, where the
workload sets ``rtol``, closeness of every float inside it.
"""

from __future__ import annotations

import math
from typing import Any

from repro import BatchRuntime


def values_match(actual: Any, expected: Any, rtol: float) -> bool:
    if isinstance(actual, float) and isinstance(expected, float):
        return actual == expected or (
            rtol > 0.0
            and math.isclose(actual, expected, rel_tol=rtol, abs_tol=rtol)
        )
    if isinstance(actual, (tuple, list)) and isinstance(expected, (tuple, list)):
        return len(actual) == len(expected) and all(
            values_match(a, e, rtol) for a, e in zip(actual, expected)
        )
    return actual == expected


def mismatches(actual: dict, expected: dict, rtol: float) -> list[str]:
    """Human-readable differences; empty when the outputs agree."""
    problems = [f"missing key {key!r}" for key in expected.keys() - actual.keys()]
    problems += [f"extra key {key!r}" for key in actual.keys() - expected.keys()]
    problems += [
        f"wrong value for {key!r}"
        for key in expected.keys() & actual.keys()
        if not values_match(actual[key], expected[key], rtol)
    ]
    return sorted(problems)


def check_against_batch(engine, outputs: dict, rtol: float) -> list[str]:
    """Compare ``outputs`` with a batch run over the engine's window."""
    expected = BatchRuntime(engine.job).run(list(engine.window)).outputs
    return mismatches(outputs, expected, rtol)
