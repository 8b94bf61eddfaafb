"""Work and time accounting.

The paper evaluates two measures (§7.1):

* **work** — the total amount of computation performed by all tasks (Map,
  contraction, Reduce), measured as the sum of the active time of all tasks;
* **time** — the end-to-end running time of the job.

In this reproduction, *work* is accumulated by a :class:`WorkMeter` that every
task and combiner invocation charges, in abstract cost units proportional to
the records it touches (scaled by the application's compute intensity).
*Time* is the makespan of the run's map wave, a shuffle barrier, then its
reduce wave on the simulated cluster (:mod:`repro.cluster`).

Since the telemetry refactor, :class:`WorkMeter` is a thin compatibility
view over :class:`repro.telemetry.Telemetry`: charges flow into the span
tree, and ``by_phase`` is the tree root's inclusive totals — bit-identical
to the flat accumulator this class used to keep (see the bit-identity
contract in :mod:`repro.telemetry.spans`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.spans import Phase, Telemetry

__all__ = ["Phase", "WorkMeter", "RunReport", "Speedup"]


class WorkMeter:
    """Accumulates abstract work units per phase.

    Work units are deterministic functions of the records processed, so two
    runs over the same input charge identical work, which makes
    speedup ratios exact rather than noisy wall-clock estimates.

    Every meter is backed by a :class:`~repro.telemetry.Telemetry`; pass
    one to share a span tree across components (the Slider shares one
    backbone with its trees, caches, and executor), or omit it for a
    private tree.
    """

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        self.telemetry = telemetry if telemetry is not None else Telemetry()

    @property
    def by_phase(self) -> dict[Phase, float]:
        """Per-phase totals, derived live from the telemetry span tree."""
        return self.telemetry.by_phase

    def charge(self, phase: Phase, amount: float) -> None:
        """Charge ``amount`` work units to ``phase``."""
        self.telemetry.charge(phase, amount)

    def total(self) -> float:
        """Total work across all phases."""
        return sum(self.by_phase.values())

    def phase_total(self, *phases: Phase) -> float:
        """Total work across the given phases."""
        by_phase = self.by_phase
        return sum(by_phase.get(p, 0.0) for p in phases)

    def foreground_total(self) -> float:
        """Work excluding background pre-processing."""
        return self.total() - self.by_phase.get(Phase.BACKGROUND, 0.0)

    def snapshot(self) -> dict[str, float]:
        """A plain-dict view, keyed by phase value, for reports."""
        return {phase.value: amount for phase, amount in self.by_phase.items()}


@dataclass(frozen=True)
class RunReport:
    """Metrics for one (initial or incremental) run of a job.

    ``work`` is the WorkMeter total; ``time`` is the simulated makespan
    (or equals work when run without a cluster); ``space`` counts the
    memoized bytes retained after the run.
    """

    label: str
    work: float
    time: float
    space: float = 0.0
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Fault-tolerance cost of the run, populated when executing under a
    #: chaos schedule: re-executed attempts, detection delay, speculative
    #: waste (see RecoveryStats.as_dict) plus re-replication traffic.
    recovery: dict[str, float] = field(default_factory=dict)

    def speedup_over(self, baseline: "RunReport") -> "Speedup":
        """Speedup of *this* run relative to ``baseline``-as-the-slow-case.

        Matches the paper's convention: ``speedup = baseline / ours``.
        """
        return Speedup(
            work=_ratio(baseline.work, self.work),
            time=_ratio(baseline.time, self.time),
        )


@dataclass(frozen=True)
class Speedup:
    """A work/time speedup pair, as reported throughout §7."""

    work: float
    time: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"work {self.work:.2f}x, time {self.time:.2f}x"


def _ratio(numerator: float, denominator: float) -> float:
    if denominator <= 0:
        return float("inf") if numerator > 0 else 1.0
    return numerator / denominator
