"""Declarative fault schedules — the chaos layer over the executor.

A :class:`ChaosSchedule` describes everything that goes wrong during one
simulated execution: machines crashing mid-wave at absolute sim times
(optionally rejoining later), transient per-attempt task failures, and
transient straggle episodes.  Random schedules are drawn from seeded
:class:`~repro.common.rng.RngStream`\\ s, so the same seed always yields
the same fault pattern and therefore the same recovery trace.

A :class:`ChaosPlan` maps incremental run indices to schedules: feed it
to :class:`~repro.slider.system.Slider` and every run's time simulation
executes under that run's faults, while outputs stay bit-identical to
the fault-free run.  A machine a schedule crashed is revived before the
next run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.machine import Cluster
from repro.common.rng import RngStream


@dataclass(frozen=True)
class MachineCrash:
    """Machine ``machine_id`` dies at ``time``; rejoins at ``recover_at``."""

    time: float
    machine_id: int
    recover_at: float | None = None


@dataclass(frozen=True)
class StraggleEpisode:
    """Machine ``machine_id`` runs at ``factor`` speed in [start, end)."""

    machine_id: int
    start: float
    end: float
    factor: float = 0.25


@dataclass(frozen=True)
class CorruptionEvent:
    """Flip ``count`` memoized entries at the start of the run.

    Victims are drawn deterministically (seeded by the schedule seed and
    ``salt``) from the engine's retained state: tree memo tables, position
    caches, and the map memo.  Corruption never changes outputs — the
    recovery layer detects the bad fingerprints, drops the poisoned
    subtrees, and recomputes, charging the repair as work.
    """

    count: int = 1
    #: Derives independent victim choices for multiple events in one run.
    salt: int = 0

    def choose(self, candidates: list, seed: int) -> list:
        """Pick up to ``count`` victims from ``candidates``, stably."""
        if not candidates:
            return []
        stream = RngStream(seed, f"chaos/corruption/{self.salt}")
        pool = list(candidates)
        picks = []
        for _ in range(min(self.count, len(pool))):
            index = int(stream.integers(0, len(pool)))
            picks.append(pool.pop(index))
        return picks


@dataclass(frozen=True)
class TransientFaults:
    """Attempt-level failures: each attempt dies with ``probability``,
    after ``failure_fraction`` of its expected duration has elapsed."""

    probability: float = 0.0
    failure_fraction: float = 0.5


@dataclass
class ChaosSchedule:
    """Every fault injected into one simulated execution."""

    crashes: list[MachineCrash] = field(default_factory=list)
    straggles: list[StraggleEpisode] = field(default_factory=list)
    transient: TransientFaults | None = None
    #: Memo-entry corruption injected before the run starts.  Orthogonal to
    #: the time-affecting faults above: :meth:`is_empty` ignores it, so a
    #: corruption-only schedule prices time on the calm path while the
    #: lifecycle layer still injects (and repairs) the flipped entries.
    corruptions: list[CorruptionEvent] = field(default_factory=list)
    seed: int = 0

    def for_run(self, run_index: int) -> "ChaosSchedule | None":
        """A plain schedule applies identically to every run."""
        return self

    def is_empty(self) -> bool:
        return (
            not self.crashes
            and not self.straggles
            and (self.transient is None or self.transient.probability <= 0)
        )

    # -- executor callbacks -------------------------------------------------

    def attempt_fails(self, label: str, attempt_number: int) -> bool:
        """Deterministic per-attempt failure coin.

        Each (task, attempt) pair gets its own derived stream, so the
        verdict is independent of event-processing order — a requirement
        for reproducible recovery traces.
        """
        if self.transient is None or self.transient.probability <= 0:
            return False
        stream = RngStream(
            self.seed, f"chaos/transient/{label}/{attempt_number}"
        )
        return stream.coin(self.transient.probability)

    # -- construction -------------------------------------------------------

    @staticmethod
    def random(
        cluster: Cluster,
        seed: int,
        horizon: float,
        crash_probability: float = 0.5,
        max_crashes: int = 1,
        recover_probability: float = 0.5,
        straggle_probability: float = 0.3,
        transient_rate: float = 0.0,
    ) -> "ChaosSchedule":
        """Draw one schedule with fault times inside ``[0, horizon)``.

        ``max_crashes`` bounds simultaneous deaths so that, with the
        default replication factor of 2, at least one persisted copy of
        every memoized object stays reachable.
        """
        rng = RngStream(seed, "chaos")
        machine_ids = [m.machine_id for m in cluster.machines]
        crashes: list[MachineCrash] = []
        crash_rng = rng.child("crashes")
        limit = min(max_crashes, max(0, len(machine_ids) - 1))
        for _ in range(limit):
            if not crash_rng.coin(crash_probability):
                continue
            victims = [m for m in machine_ids
                       if m not in {c.machine_id for c in crashes}]
            victim = int(crash_rng.choice(victims))
            when = float(crash_rng.uniform(0.0, horizon))
            recover_at = None
            if crash_rng.coin(recover_probability):
                recover_at = when + float(
                    crash_rng.uniform(0.1 * horizon, 0.5 * horizon)
                )
            crashes.append(MachineCrash(when, victim, recover_at))
        straggles: list[StraggleEpisode] = []
        straggle_rng = rng.child("straggles")
        if straggle_rng.coin(straggle_probability):
            victim = int(straggle_rng.choice(machine_ids))
            start = float(straggle_rng.uniform(0.0, 0.5 * horizon))
            end = start + float(straggle_rng.uniform(0.1, 1.0) * horizon)
            factor = float(straggle_rng.uniform(0.1, 0.6))
            straggles.append(StraggleEpisode(victim, start, end, factor))
        transient = (
            TransientFaults(probability=transient_rate)
            if transient_rate > 0
            else None
        )
        return ChaosSchedule(
            crashes=crashes,
            straggles=straggles,
            transient=transient,
            seed=seed,
        )


@dataclass
class ChaosPlan:
    """Per-incremental-run chaos: run index -> schedule (None = calm run)."""

    schedules: dict[int, ChaosSchedule] = field(default_factory=dict)

    def for_run(self, run_index: int) -> ChaosSchedule | None:
        return self.schedules.get(run_index)

    @staticmethod
    def random(
        cluster: Cluster,
        runs: int,
        seed: int,
        horizon: float,
        **kwargs,
    ) -> "ChaosPlan":
        """Independent random chaos for each of ``runs`` incremental runs."""
        schedules = {}
        for run_index in range(runs):
            schedule = ChaosSchedule.random(
                cluster, seed * 10_007 + run_index, horizon, **kwargs
            )
            if not schedule.is_empty():
                schedules[run_index] = schedule
        return ChaosPlan(schedules)
