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


#: Share of its expected duration a transiently failing attempt runs
#: before it dies.
FAILURE_FRACTION = 0.5
#: Chance that a crashed machine of a random schedule comes back.
RECOVER_PROBABILITY = 0.5


@dataclass(frozen=True)
class TransientFaults:
    """Attempt-level failures: each attempt dies with ``probability``,
    after ``FAILURE_FRACTION`` of its expected duration has elapsed."""

    probability: float = 0.0


@dataclass
class ChaosSchedule:
    """Every fault injected into one simulated execution."""

    crashes: list[MachineCrash] = field(default_factory=list)
    straggles: list[StraggleEpisode] = field(default_factory=list)
    transient: TransientFaults | None = None
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
        straggle_probability: float = 0.3,
        transient_rate: float = 0.0,
    ) -> "ChaosSchedule":
        """Draw one schedule with fault times inside ``[0, horizon)``.

        At most one machine crashes, and never the last one, so that with
        the cache's default two replicas at least one persisted copy of
        every memoized object stays reachable.
        """
        rng = RngStream(seed, "chaos")
        machine_ids = [m.machine_id for m in cluster.machines]
        crashes: list[MachineCrash] = []
        crash_rng = rng.child("crashes")
        if len(machine_ids) > 1 and crash_rng.coin(crash_probability):
            victim = int(crash_rng.choice(machine_ids))
            when = float(crash_rng.uniform(0.0, horizon))
            recover_at = None
            if crash_rng.coin(RECOVER_PROBABILITY):
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
