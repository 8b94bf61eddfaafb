"""Equality of combined values: exact, or structural with a float tolerance.

Float addition is not bitwise associative, so a combiner that adds
floats (:class:`~repro.mapreduce.combiners.VectorSumCombiner`, the mean)
merges a re-bracketed window to a value that differs in its last bits.
Whether ``==`` is the right comparison is therefore a *declared* property
of a combiner (:attr:`~repro.mapreduce.combiners.Combiner.exact`), and
this module holds the one comparison used where it is not: the law
harness (:mod:`repro.analysis.laws`), the engine's own output invariant
(:meth:`~repro.slider.lifecycle.LifecycleManager.verify_outputs`) and the
test oracle all compare through :func:`same_value`.  A mislabeled algebra
(mean-of-means, subtraction) is off by the scale of its operands, which
the tolerance never absorbs.
"""

from __future__ import annotations

import math
from typing import Any

#: Relative tolerance for float comparisons, scaled by operand magnitude.
REL_TOL = 1e-9


def magnitude(value: Any) -> float:
    """The largest absolute float/int reachable inside ``value``."""
    if isinstance(value, bool):
        return 1.0
    if isinstance(value, (int, float)):
        return abs(float(value))
    if isinstance(value, (tuple, list, set, frozenset)):
        return max((magnitude(v) for v in value), default=0.0)
    if isinstance(value, dict):
        return max(
            (max(magnitude(k), magnitude(v)) for k, v in value.items()),
            default=0.0,
        )
    return 0.0


def approx_equal(left: Any, right: Any, *, scale: float = 0.0) -> bool:
    """Structural equality with magnitude-scaled float tolerance."""
    if isinstance(left, bool) or isinstance(right, bool):
        return left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        tolerance = REL_TOL * (1.0 + max(scale, abs(left), abs(right)))
        return math.isclose(left, right, rel_tol=REL_TOL, abs_tol=tolerance)
    if type(left) is not type(right):
        return False
    if isinstance(left, (tuple, list)):
        return len(left) == len(right) and all(
            approx_equal(a, b, scale=scale) for a, b in zip(left, right)
        )
    if isinstance(left, (set, frozenset)):
        return left == right
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            approx_equal(v, right[k], scale=scale) for k, v in left.items()
        )
    return left == right


def same_value(left: Any, right: Any, *, exact: bool) -> bool:
    """``==`` when ``exact``; otherwise :func:`approx_equal` at the scale
    of the larger side."""
    if exact:
        return left == right
    return approx_equal(left, right, scale=max(magnitude(left), magnitude(right)))
