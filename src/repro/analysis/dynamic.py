"""Dynamic cross-check: vector clocks over what actually executed.

The static race pass (:mod:`repro.analysis.races`) reasons over the plan
IR; this module validates its verdicts against *execution*.  A
:class:`DynamicRaceRecorder` reads a finished run's log
(:meth:`DynamicRaceRecorder.read`) and observes every resolved step —
including memo hit/miss, which the static pass must over-approximate:
the log says which node each step executed first — across calm, chaos,
and dispatched runs alike.

Each observed step gets a **vector clock** under the same lane model the
static pass uses (per-map lanes in the map phase, per-reducer lanes after
the shuffle barrier, a conservative engine lane for unattributed steps);
every ``begin_run`` is a full barrier.  Two steps are concurrent iff
neither clock dominates the other.  The recorder tracks, per resource,
the latest read and write clock per lane (within a lane clocks grow
monotonically, so the latest access dominates the earlier ones) and
records every concurrent conflicting pair as an
:class:`ObservedConflict`.

The recorder also sees steps that executed in *worker processes*: a
worker replies with its run's log records, and the process execution
backend takes them into the parent's log during the deterministic
reducer-order merge, at exactly the position the in-process run would
have logged them.  The vector clocks therefore describe the logical lane
structure of what the workers really did — one lane per reducer — not
merely a single-process simulation of it.

The contract with the static pass is one-sided soundness:
:meth:`DynamicRaceRecorder.unexplained` returns any observed non-benign
conflict the static pass did not flag — the test suite fails if that list
is ever non-empty.  (The static pass may flag more: it cannot see memo
hits, so it models every cache edge as read+write.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analysis.findings import ERROR, INFO, Finding
from repro.analysis.races import ENGINE_LANE, IDEMPOTENT_PREFIXES
from repro.core.taskgraph import REDUCER, STEP, RunLog

_VectorClock = dict[str, int]  # lane -> counter
#: Per-lane access state: [latest read, latest write], each (clock, op).
_AccessState = list  # list[tuple[_VectorClock, str] | None], two slots


def clock_leq(a: _VectorClock, b: _VectorClock) -> bool:
    """Componentwise ``a <= b`` — a happened-before-or-equals b."""
    return all(count <= b.get(lane, 0) for lane, count in a.items())


@dataclass(frozen=True)
class ObservedConflict:
    """Two executed steps that raced on a resource at runtime."""

    resource: str
    first_op: str
    second_op: str
    first_lane: str
    second_lane: str
    run: int

    @property
    def benign(self) -> bool:
        return self.resource.startswith(IDEMPOTENT_PREFIXES)


class DynamicRaceRecorder:
    """Builds vector clocks from executed steps."""

    def __init__(self) -> None:
        #: lane -> that lane's latest vector clock (current run).
        self._clocks: dict[str, _VectorClock] = {}
        #: Merged clock of everything before the current run (full barrier).
        self._base: _VectorClock = {}
        #: Merged map-phase clock; sealed at the first post-shuffle step.
        self._barrier: _VectorClock | None = None
        #: resource -> lane -> (latest read clock, latest write clock).
        self._accesses: dict[str, dict[str, _AccessState]] = {}
        self.conflicts: list[ObservedConflict] = []
        self.events = 0
        self.runs = 0
        self._map_seq = 0

    # -- observing ------------------------------------------------------------

    def read(self, log: RunLog) -> None:
        """Observe one finished run: a run boundary, then each step its
        log opened, in log order — a hit when the step's first node is a
        ``memo_read``."""
        self.on_begin_run(log.label)
        for record in log.records:
            if record[STEP] is not None:
                op, _, _, _, memo_uid, _ = record[STEP]
                hit = record[0] == "memo_read"
                self.on_step(op, reducer=record[REDUCER], memo_uid=memo_uid, hit=hit)

    def on_begin_run(self, label: str = "") -> None:
        """A run boundary is a full barrier: merge every lane into the base."""
        merged = dict(self._base)
        for vec in self._clocks.values():
            for lane, count in vec.items():
                merged[lane] = max(merged.get(lane, 0), count)
        self._base = merged
        self._clocks = {}
        self._barrier = None
        self.runs += 1

    def on_step(
        self,
        op: str,
        *,
        reducer: int | None = None,
        memo_uid: int | None = None,
        hit: bool | None = None,
    ) -> None:
        if op == "map":
            lane = f"run{self.runs}:map#{self._map_seq}"
            self._map_seq += 1
            clock = self._advance(lane, epoch=0)
        else:
            lane = ENGINE_LANE if reducer is None else f"reducer:{reducer}"
            clock = self._advance(lane, epoch=1)
        reads, writes = self._resources(op, lane, memo_uid, hit)
        for resource in reads | writes:
            self._touch(resource, lane, clock, resource in writes, op)
        self.events += 1

    # -- clock machinery -----------------------------------------------------

    def _advance(self, lane: str, epoch: int) -> _VectorClock:
        if epoch == 0:
            start = self._base
        else:
            if self._barrier is None:
                merged = dict(self._base)
                for vec in self._clocks.values():
                    for other, count in vec.items():
                        merged[other] = max(merged.get(other, 0), count)
                self._barrier = merged
            start = self._barrier
        clock = dict(self._clocks.get(lane, start))
        clock[lane] = clock.get(lane, 0) + 1
        self._clocks[lane] = clock
        return clock

    def _resources(
        self, op: str, lane: str, memo_uid: int | None, hit: bool | None
    ) -> tuple[frozenset[str], frozenset[str]]:
        if op == "map":
            slot = f"map_memo:{memo_uid:#x}" if memo_uid is not None else lane
            return frozenset(), frozenset({slot})
        tree = f"tree:{lane}"
        if op == "combine":
            reads, writes = {tree}, {tree}
            if memo_uid is not None:
                slot = f"memo:{memo_uid:#x}"
                # Unlike the static pass, execution knows hit vs miss.
                reads.add(slot)
                if not hit:
                    writes.add(slot)
            return frozenset(reads), frozenset(writes)
        if op == "visit":
            return frozenset({tree}), frozenset()
        slot = f"reduce_memo:{lane}"
        return frozenset({tree, slot}), frozenset({slot})

    def _touch(
        self,
        resource: str,
        lane: str,
        clock: _VectorClock,
        is_write: bool,
        op: str,
    ) -> None:
        lanes = self._accesses.setdefault(resource, {})
        for other_lane, (read_state, write_state) in lanes.items():
            if other_lane == lane:
                continue  # same lane: totally ordered by construction
            for prev, prev_write in ((read_state, False), (write_state, True)):
                if prev is None or not (is_write or prev_write):
                    continue
                prev_clock, prev_op = prev
                if clock_leq(prev_clock, clock) or clock_leq(clock, prev_clock):
                    continue
                self.conflicts.append(
                    ObservedConflict(
                        resource=resource,
                        first_op=prev_op,
                        second_op=op,
                        first_lane=other_lane,
                        second_lane=lane,
                        run=self.runs,
                    )
                )
        state = lanes.setdefault(lane, [None, None])
        state[1 if is_write else 0] = (clock, op)

    # -- verdicts ------------------------------------------------------------

    def unexplained(
        self, static_findings: Iterable[Finding]
    ) -> list[ObservedConflict]:
        """Observed non-benign conflicts the static pass did not flag.

        A conflict is explained when some static *error* finding mentions
        its resource.  A non-empty return is the cross-check failing: the
        static pass under-approximated actual execution.
        """
        static_errors = [
            f.message for f in static_findings if f.severity == ERROR
        ]
        return [
            conflict
            for conflict in self.conflicts
            if not conflict.benign
            and not any(conflict.resource in msg for msg in static_errors)
        ]

    def to_findings(self, where: str = "dynamic") -> list[Finding]:
        """Render observed conflicts as findings (benign ones at info)."""
        findings: list[Finding] = []
        for conflict in self.conflicts:
            message = (
                f"run {conflict.run}: {conflict.first_op} in "
                f"{conflict.first_lane} and {conflict.second_op} in "
                f"{conflict.second_lane} raced on {conflict.resource}"
            )
            if conflict.benign:
                findings.append(
                    Finding(
                        rule="dynamic.idempotent-write",
                        message=message + " (content-addressed slot: benign)",
                        where=where,
                        severity=INFO,
                    )
                )
            else:
                findings.append(
                    Finding(
                        rule="dynamic.race",
                        message=message,
                        where=where,
                        severity=ERROR,
                    )
                )
        return findings
