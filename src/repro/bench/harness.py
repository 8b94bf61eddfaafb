"""Experiment driver: identical window schedules across runner variants.

The paper's methodology (§7.1): pick an application and a window mode, move
the window so that p% of the input changes per run, and compare Slider
against recomputing from scratch (Figure 7) and against the strawman
(Figure 8), in both *work* and *time*.

``run_experiment`` executes one (app, mode, change%, variant) cell;
``run_change_sweep`` sweeps the paper's 5..25 % x-axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.apps.registry import AppSpec
from repro.cluster.machine import Cluster, ClusterConfig
from repro.cluster.scheduler import HadoopScheduler, HybridScheduler
from repro.metrics import RunReport, _ratio
from repro.slider.baseline import VanillaRunner
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from repro.telemetry import TelemetrySnapshot

#: Runner variants benchmarks may request.
VARIANTS = ("slider", "vanilla", "strawman")


@dataclass(frozen=True)
class SlideSchedule:
    """A window schedule: the initial window plus per-run (added, removed).

    ``added`` entries are split *counts*; the harness materializes actual
    splits with increasing offsets so appended data is always fresh.
    """

    window_splits: int
    slides: tuple[tuple[int, int], ...]

    @staticmethod
    def for_change(
        mode: WindowMode, window_splits: int, change_percent: int, rounds: int = 2
    ) -> "SlideSchedule":
        """The paper's p%-change schedule for a mode (§7.1 Methodology)."""
        delta = max(1, round(window_splits * change_percent / 100))
        if mode is WindowMode.APPEND:
            slides = tuple((delta, 0) for _ in range(rounds))
        else:
            slides = tuple((delta, delta) for _ in range(rounds))
        return SlideSchedule(window_splits=window_splits, slides=slides)


@dataclass
class WindowExperiment:
    """Measured reports for one variant driven through a schedule."""

    variant: str
    initial: RunReport
    incremental: list[RunReport] = field(default_factory=list)
    #: Background pre-processing work charged before each incremental run
    #: (only populated when the experiment ran with background rounds).
    background_work: list[float] = field(default_factory=list)
    outputs_digest: int = 0
    #: Frozen view of the runner's telemetry backbone after the last run:
    #: per-phase work, counters, span counts.  Reports read this instead
    #: of poking at runner internals.
    telemetry: TelemetrySnapshot | None = None

    def mean_incremental_work(self) -> float:
        return _mean([r.work for r in self.incremental])

    def mean_incremental_time(self) -> float:
        return _mean([r.time for r in self.incremental])


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _digest(outputs: dict) -> int:
    # Cheap order-free digest for cross-variant consistency checks.
    return len(outputs)


def make_cluster(seed: int = 42) -> Cluster:
    """The evaluation cluster: 24 workers, 2 slots each, a few stragglers."""
    return Cluster(ClusterConfig(num_machines=24, slots_per_machine=2, seed=seed))


def _make_runner(
    variant: str,
    spec: AppSpec,
    mode: WindowMode,
    schedule: SlideSchedule,
    cluster: Cluster | None,
    split_mode: bool,
    tree: str | None,
    scheduler=None,
):
    job = spec.make_job()
    if variant == "vanilla":
        return VanillaRunner(
            job,
            mode=mode,
            cluster=cluster,
            scheduler=scheduler or (HadoopScheduler() if cluster else None),
        )
    if variant == "strawman":
        config = SliderConfig(mode=mode, tree="strawman")
        return Slider(
            job, mode=mode, config=config, cluster=cluster, scheduler=scheduler
        )
    if variant == "slider":
        bucket = schedule.slides[0][0] if mode is WindowMode.FIXED else 1
        config = SliderConfig(
            mode=mode,
            tree=tree or "auto",
            bucket_size=bucket,
            split_mode=split_mode,
        )
        return Slider(
            job,
            mode=mode,
            config=config,
            cluster=cluster,
            scheduler=scheduler or (HybridScheduler() if cluster else None),
        )
    raise ValueError(f"unknown variant {variant!r}")


def run_experiment(
    spec: AppSpec,
    mode: WindowMode,
    schedule: SlideSchedule,
    variant: str = "slider",
    seed: int = 17,
    cluster: Cluster | None = None,
    split_mode: bool = False,
    background_each_round: bool = False,
    tree: str | None = None,
    scheduler=None,
) -> WindowExperiment:
    """Drive one runner variant through one schedule; returns its reports."""
    runner = _make_runner(
        variant, spec, mode, schedule, cluster, split_mode, tree, scheduler
    )

    # FIXED mode needs the window to be a whole number of buckets.
    window_splits = schedule.window_splits
    if mode is WindowMode.FIXED:
        bucket = schedule.slides[0][0]
        window_splits = max(bucket, (window_splits // bucket) * bucket)

    initial_splits = spec.make_splits(window_splits, seed, 0)
    experiment = WindowExperiment(variant=variant, initial=None)  # type: ignore[arg-type]
    result = runner.initial_run(initial_splits)
    experiment.initial = result.report

    offset = window_splits
    for added_count, removed in schedule.slides:
        if background_each_round:
            experiment.background_work.append(runner.background_preprocess())
        added = spec.make_splits(added_count, seed, offset)
        offset += added_count
        result = runner.advance(added, removed)
        experiment.incremental.append(result.report)
    experiment.outputs_digest = _digest(result.outputs)
    experiment.telemetry = runner.telemetry.snapshot()
    return experiment


@dataclass
class ChangeSweepResult:
    """Speedup series over the change% x-axis for one (app, mode)."""

    app: str
    mode: WindowMode
    change_percents: list[int]
    work_speedups: list[float]
    time_speedups: list[float]


def run_change_sweep(
    spec: AppSpec,
    mode: WindowMode,
    baseline_variant: str,
    change_percents: Sequence[int] = (5, 10, 15, 20, 25),
    window_splits: int = 40,
    seed: int = 17,
    use_cluster: bool = True,
) -> ChangeSweepResult:
    """Figure 7/8's sweep: Slider's speedup over a baseline vs change%."""
    work_speedups: list[float] = []
    time_speedups: list[float] = []
    for change in change_percents:
        schedule = SlideSchedule.for_change(mode, window_splits, change)
        slider = run_experiment(
            spec,
            mode,
            schedule,
            variant="slider",
            seed=seed,
            cluster=make_cluster() if use_cluster else None,
        )
        baseline = run_experiment(
            spec,
            mode,
            schedule,
            variant=baseline_variant,
            seed=seed,
            cluster=make_cluster() if use_cluster else None,
        )
        work_speedups.append(
            _ratio(baseline.mean_incremental_work(), slider.mean_incremental_work())
        )
        time_speedups.append(
            _ratio(baseline.mean_incremental_time(), slider.mean_incremental_time())
        )
    return ChangeSweepResult(
        app=spec.name,
        mode=mode,
        change_percents=list(change_percents),
        work_speedups=work_speedups,
        time_speedups=time_speedups,
    )
