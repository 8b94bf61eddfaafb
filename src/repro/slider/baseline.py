"""The recompute-from-scratch baseline with a Slider-compatible lifecycle.

Wraps :class:`~repro.mapreduce.runtime.BatchRuntime` in the same
``initial_run`` / ``advance`` interface as :class:`~repro.slider.system.Slider`
so benchmarks can drive both through identical window schedules and compare
work and simulated time run-for-run (the denominators of Figure 7).
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.machine import Cluster
from repro.cluster.scheduler import HadoopScheduler, Scheduler, SimTask
from repro.common.errors import WindowError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import BatchRuntime
from repro.mapreduce.types import Split, SplitWindow
from repro.metrics import RunReport
from repro.slider.execution import calm_two_waves
from repro.slider.system import SliderResult
from repro.slider.window import WindowDelta, WindowMode
from repro.telemetry import ENGINE_KEEP_LAST, SpanKind, Telemetry


class VanillaRunner:
    """Re-runs the whole window from scratch on every slide."""

    def __init__(
        self,
        job: MapReduceJob,
        mode: WindowMode = WindowMode.VARIABLE,
        cluster: Cluster | None = None,
        scheduler: Scheduler | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.job = job
        self.mode = mode
        #: Telemetry backbone: each batch run's span tree is grafted here
        #: and the wave placements land on machine lanes alongside it.
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(label=f"vanilla:{job.name}", keep_last=ENGINE_KEEP_LAST)
        )
        self.runtime = BatchRuntime(job, telemetry=self.telemetry)
        self.window = SplitWindow()
        self.cluster = cluster
        self.scheduler = scheduler or HadoopScheduler()
        self.blocks = None
        if cluster is not None:
            from repro.cluster.storage import BlockStore

            self.blocks = BlockStore(cluster, telemetry=self.telemetry)
        self._run_index = 0
        self._ran_initial = False

    def initial_run(self, splits: Sequence[Split]) -> SliderResult:
        if self._ran_initial:
            raise WindowError("initial_run may only be called once")
        self._ran_initial = True
        self.window.append(list(splits))
        return self._run("initial")

    def advance(self, added: Sequence[Split], removed: int) -> SliderResult:
        if not self._ran_initial:
            raise WindowError("advance called before initial_run")
        WindowDelta(len(added), removed).validate(self.mode, len(self.window))
        self.window.drop_front(removed)
        self.window.append(list(added))
        return self._run(f"incremental-{self._run_index}")

    def background_preprocess(self) -> float:
        """Vanilla Hadoop has no background phase; present for API parity."""
        return 0.0

    def _run(self, label: str) -> SliderResult:
        with self.telemetry.span(
            label, SpanKind.WINDOW_UPDATE, run_index=self._run_index
        ):
            return self._run_inner(label)

    def _run_inner(self, label: str) -> SliderResult:
        if self.blocks is not None:
            self.blocks.store_all(self.window.splits)
        job_result = self.runtime.run(self.window.splits, label=f"batch-{label}")
        work = job_result.work
        with self.telemetry.span("execute", SpanKind.PHASE):
            time = self._simulate_time(job_result)
        report = RunReport(
            label=label,
            work=work,
            time=time,
            space=0.0,
            breakdown={
                phase.value: amount
                for phase, amount in job_result.telemetry.by_phase.items()
            },
        )
        result = SliderResult(
            outputs=job_result.outputs,
            report=report,
            run_index=self._run_index,
            reused_map_tasks=0,
            new_map_tasks=len(self.window),
        )
        self._run_index += 1
        return result

    def _simulate_time(self, job_result) -> float:
        if self.cluster is None:
            return job_result.work
        map_tasks = []
        reduce_tasks = []
        for record in job_result.tasks:
            preferred = None
            if record.kind == "map":  # on a cluster, with a block store
                preferred = self.blocks.preferred_machine(record.split_uid)
            task = SimTask(
                label=record.label,
                cost=record.cost,
                preferred_machine=preferred,
                fetch_bytes=record.input_bytes,
                kind=record.kind,
            )
            (map_tasks if record.kind == "map" else reduce_tasks).append(task)
        return calm_two_waves(
            map_tasks, reduce_tasks, self.cluster, self.scheduler,
            self.telemetry,
        )
