"""The plan compiler: a Plan's replay template.

A :class:`CompiledPlan` is the source plan plus its op sequence — the
template the executor's replay mode validates live execution against,
step by step.  The source plan is carried verbatim, so a CompiledPlan's
shape, counts, and signatures are exactly its plan's and golden plan
fixtures gate the compiler for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import Plan
from repro.metrics import Phase


@dataclass(frozen=True)
class CompiledPlan:
    """A reusable form of one run's Plan.

    ``ops`` is the executor's replay template: one entry per plan step,
    in emission order.  ``plan`` is the source plan, served verbatim on
    cache hits so downstream consumers (shape goldens, reports) see the
    identical artifact.
    """

    plan: Plan
    ops: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ops)

    def shape(self) -> dict:
        return self.plan.shape()

    def structural_signature(self) -> tuple:
        return self.plan.structural_signature()


def compile_plan(plan: Plan) -> CompiledPlan:
    """Extract ``plan``'s replay template."""
    return CompiledPlan(plan=plan, ops=tuple(step.op for step in plan.steps))


#: Step shapes that make up one reducer's contraction pass: combiner
#: invocations plus the strawman's positional memo visits.
_CONTRACTION_OPS = ("combine", "visit")
_CONTRACTION_PHASES = (Phase.CONTRACTION, Phase.MEMO_READ)


def contraction_slices(
    compiled: CompiledPlan, num_reducers: int
) -> dict[int, tuple[int, int]]:
    """Per-reducer ``[start, end)`` template ranges of the contraction pass.

    The multi-process backend dispatches each reducer's contraction as
    one unit: the worker replays exactly ``compiled.ops[start:end]`` and
    the parent skips the same range.  A reducer appears in the result
    only when its contraction steps form one *contiguous* run of the
    template (they always do for the planners that declare structure
    keys — maps first, then reducer 0..R-1 in order, then reduces — but
    this is verified, not assumed); a reducer with scattered steps, or
    none, simply stays on the in-process path.
    """
    indices: dict[int, list[int]] = {}
    for i, step in enumerate(compiled.plan.steps):
        if (
            step.op in _CONTRACTION_OPS
            and step.phase in _CONTRACTION_PHASES
            and step.reducer is not None
            and 0 <= step.reducer < num_reducers
        ):
            indices.setdefault(step.reducer, []).append(i)
    slices: dict[int, tuple[int, int]] = {}
    for reducer, found in indices.items():
        start, end = found[0], found[-1] + 1
        if found == list(range(start, end)):
            slices[reducer] = (start, end)
    return slices


def slice_template(compiled: CompiledPlan, start: int, end: int) -> CompiledPlan:
    """A standalone mini-template covering ``compiled``'s ``[start, end)``.

    The worker-side executor replays this slice exactly as the parent
    would have replayed those steps in place: same ops, cursor starting
    at zero.
    """
    if not 0 <= start <= end <= len(compiled.ops):
        raise ValueError(
            f"slice [{start}, {end}) outside the {len(compiled.ops)}-step plan"
        )
    plan = Plan(label=f"{compiled.plan.label}[{start}:{end}]")
    plan.steps.extend(compiled.plan.steps[start:end])
    return CompiledPlan(plan=plan, ops=compiled.ops[start:end])
