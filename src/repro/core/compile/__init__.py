"""The plan-compile layer: cache and replay plans.

Sits strictly between the plan IR and everything above it: this package
may read :mod:`repro.core.plan` but never the executor, the planners, or
the slider/cluster/recovery layers (the ``repro.analysis`` layering gate
enforces both directions).

* :func:`compile_plan` — extracts a plan's replay template
  (:mod:`repro.core.compile.compiler`);
* :class:`PlanCache` — LRU of compiled plans keyed by window-motion
  signature (:mod:`repro.core.compile.cache`).
"""

from repro.core.compile.cache import PlanCache, PlanCacheStats
from repro.core.compile.compiler import (
    CompiledPlan,
    compile_plan,
    contraction_slices,
    slice_template,
)

__all__ = [
    "CompiledPlan",
    "PlanCache",
    "PlanCacheStats",
    "compile_plan",
    "contraction_slices",
    "slice_template",
]
