"""Work and time accounting.

The paper evaluates two measures (§7.1):

* **work** — the total amount of computation performed by all tasks (Map,
  contraction, Reduce), measured as the sum of the active time of all tasks;
* **time** — the end-to-end running time of the job.

In this reproduction, *work* is charged, in abstract cost units
proportional to the records each task and combiner invocation touches
(scaled by the application's compute intensity), to the
:class:`~repro.telemetry.Telemetry` the caller holds — the engine's, a
standalone executor's or a batch run's own.  Its ``by_phase`` is the span
tree root's inclusive totals and ``total()`` their sum (see the
bit-identity contract in :mod:`repro.telemetry.spans`).  Work units are
deterministic functions of the records processed, so two runs over the
same input charge identical work and speedup ratios are exact.  *Time* is
the makespan of the run's map wave, a shuffle barrier, then its reduce
wave on the simulated cluster (:mod:`repro.cluster`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.spans import Phase

__all__ = ["Phase", "RunReport", "Speedup"]


@dataclass(frozen=True)
class RunReport:
    """Metrics for one (initial or incremental) run of a job.

    ``work`` is the work the run charged to its telemetry, background
    pre-processing excluded; ``time`` is the simulated makespan (or equals
    work when run without a cluster); ``space`` counts the memoized keys
    retained after the run.
    """

    label: str
    work: float
    time: float
    space: float = 0.0
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Fault-tolerance cost of the run: when its chaos schedule is
    #: non-empty, re-executed attempts, detection delay, wasted work (see
    #: RecoveryStats.as_dict), the map wave's finish and re-replication
    #: traffic; empty on a calm run.
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


def _ratio(numerator: float, denominator: float) -> float:
    if denominator <= 0:
        return float("inf") if numerator > 0 else 1.0
    return numerator / denominator
