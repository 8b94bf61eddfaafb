"""Plan-level race detection: happens-before over the Plan IR.

The process execution backend (:mod:`repro.core.backends`) runs one
worker lane per reducer, and Map tasks are independent, so the
correctness question is: *which pairs of plan steps may execute
concurrently, and do any of them touch the same state with at least one
write?*  This module answers it statically, over the plan IR alone — a
run's :class:`~repro.core.plan.Plan` or any sequence of
:class:`~repro.core.plan.PlanStep` — no execution required.

**The happens-before model.**  Each step is assigned a *lane* and an
*epoch*:

* every ``map`` step gets its own lane (Map tasks are mutually
  independent — that is the point of the map phase) in epoch 0;
* the map → contraction shuffle barrier separates epoch 0 from epoch 1:
  every map step happens-before every later step;
* ``combine``/``visit``/``reduce`` steps run in their reducer's lane
  (epoch 1), in plan order; steps with no reducer attribution fall into a
  single conservative *engine* lane.

``happens_before(a, b)`` holds iff ``a`` is in an earlier epoch, or both
share a lane and ``a`` precedes ``b`` in plan order.  Two steps without
an ordering either way are *concurrent*.

**Footprints.**  Each step touches resources derived from its fields:

* ``map`` — writes ``map_memo:<uid>`` (its split's map-memo slot);
* ``combine`` — reads/writes ``tree:<lane>`` (the tree's structural
  state) and, when carrying a cache edge, reads+writes ``memo:<uid>``
  (conservative: only execution knows hit vs miss);
* ``visit`` — reads ``tree:<lane>``;
* ``reduce`` — reads ``tree:<lane>``, reads+writes ``reduce_memo:<lane>``.

A conflict is a concurrent pair with a shared resource and at least one
write.  Memo slots are **content-addressed** (the uid is a content hash
and every writer is a law-checked deterministic combiner), so concurrent
memo write/write or write/read pairs across lanes are *benign idempotent*
races — both orders store/observe the same bytes — reported at info
severity, not as errors.  Everything else is a hard finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.findings import ERROR, INFO, Finding
from repro.core.plan import PlanStep

#: The conservative lane for steps with no reducer attribution.
ENGINE_LANE = "engine"

#: Resource prefixes whose cross-lane write conflicts are benign because
#: the slot is content-addressed and all writers are deterministic.
IDEMPOTENT_PREFIXES = ("memo:",)


@dataclass(frozen=True)
class Footprint:
    """One step's lane, epoch, and resource read/write sets."""

    uid: int
    op: str
    lane: str
    epoch: int
    reads: frozenset
    writes: frozenset
    label: str = ""

    def conflicts(self, other: "Footprint") -> frozenset:
        """Resources the two steps race on (at least one side writes)."""
        return frozenset(
            (self.writes & (other.reads | other.writes))
            | (other.writes & self.reads)
        )


@dataclass(frozen=True)
class RacePair:
    """A concurrent step pair with a conflicting footprint."""

    first: Footprint
    second: Footprint
    resources: frozenset

    @property
    def benign(self) -> bool:
        """True when every conflicting resource is content-addressed."""
        return all(
            resource.startswith(IDEMPOTENT_PREFIXES)
            for resource in self.resources
        )


def step_footprint(step: PlanStep) -> Footprint:
    """Derive the lane, epoch, and resource sets of one plan step."""
    if step.op == "map":
        uid = step.memo_uid if step.memo_uid is not None else step.uid
        return Footprint(
            uid=step.uid,
            op=step.op,
            lane=f"map#{step.uid}",
            epoch=0,
            reads=frozenset({f"split:{uid:#x}"}),
            writes=frozenset({f"map_memo:{uid:#x}"}),
            label=step.label,
        )
    lane = ENGINE_LANE if step.reducer is None else f"reducer:{step.reducer}"
    tree = f"tree:{lane}"
    if step.op == "combine":
        reads = {tree}
        writes = {tree}
        if step.memo_uid is not None:
            slot = f"memo:{step.memo_uid:#x}"
            reads.add(slot)
            writes.add(slot)
        return Footprint(
            uid=step.uid, op=step.op, lane=lane, epoch=1,
            reads=frozenset(reads), writes=frozenset(writes),
            label=step.label,
        )
    if step.op == "visit":
        return Footprint(
            uid=step.uid, op=step.op, lane=lane, epoch=1,
            reads=frozenset({tree}), writes=frozenset(),
            label=step.label,
        )
    # reduce
    slot = f"reduce_memo:{lane}"
    return Footprint(
        uid=step.uid, op=step.op, lane=lane, epoch=1,
        reads=frozenset({tree, slot}), writes=frozenset({slot}),
        label=step.label,
    )


def plan_footprints(plan: Iterable[PlanStep]) -> list[Footprint]:
    """The footprint of every step of ``plan`` (a
    :class:`~repro.core.plan.Plan` or any sequence of steps), in order."""
    return [step_footprint(step) for step in plan]


def happens_before(a: Footprint, b: Footprint) -> bool:
    """True when ``a`` is ordered before ``b`` in the parallel schedule."""
    if a.epoch < b.epoch:
        return True
    if a.epoch > b.epoch:
        return False
    return a.lane == b.lane and a.uid < b.uid


def find_races(footprints: Sequence[Footprint]) -> list[RacePair]:
    """All concurrent conflicting pairs, by resource-indexed sweep."""
    by_resource: dict[str, list[tuple[Footprint, bool]]] = {}
    for fp in footprints:
        for resource in fp.reads | fp.writes:
            by_resource.setdefault(resource, []).append(
                (fp, resource in fp.writes)
            )
    pairs: dict[tuple[int, int], set] = {}
    for resource, touches in by_resource.items():
        if len({(fp.lane, fp.epoch) for fp, _ in touches}) == 1:
            continue  # one lane, one epoch: plan order covers every pair
        for i, (a, a_writes) in enumerate(touches):
            for b, b_writes in touches[i + 1 :]:
                if not (a_writes or b_writes):
                    continue
                if happens_before(a, b) or happens_before(b, a):
                    continue
                key = (min(a.uid, b.uid), max(a.uid, b.uid))
                pairs.setdefault(key, set()).add(resource)
    lookup = {fp.uid: fp for fp in footprints}
    return [
        RacePair(
            first=lookup[first], second=lookup[second],
            resources=frozenset(resources),
        )
        for (first, second), resources in sorted(pairs.items())
    ]


def analyze_plan(plan: Iterable[PlanStep], where: str = "plan") -> list[Finding]:
    """Race findings for one plan: errors for real races, info for benign
    idempotent (content-addressed) conflicts."""
    findings: list[Finding] = []
    for race in find_races(plan_footprints(plan)):
        resources = ", ".join(sorted(race.resources))
        message = (
            f"steps {race.first.uid} ({race.first.op} "
            f"{race.first.label or '?'}) and {race.second.uid} "
            f"({race.second.op} {race.second.label or '?'}) are concurrent "
            f"and conflict on {resources}"
        )
        if race.benign:
            findings.append(
                Finding(
                    rule="races.idempotent-write",
                    message=message + " (content-addressed slot: benign)",
                    where=where,
                    severity=INFO,
                )
            )
        else:
            findings.append(
                Finding(
                    rule="races.plan-conflict",
                    message=message + " — no happens-before edge orders them",
                    where=where,
                    severity=ERROR,
                )
            )
    return findings

