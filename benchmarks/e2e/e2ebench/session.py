"""One run of one workload: stream, set-up, warm-up and the measured loop.

The loop drives only the public ``Slider`` API.  Each operation is timed
on its own; everything else (slicing the stream, oracle checks, the
calibration kernel) happens between timers.
"""

from __future__ import annotations

import gc
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro import Slider

from . import oracle
from .host import Timeline, children_cpu_seconds
from .workloads import Workload, make_stream


@dataclass
class Measurement:
    """What one pass over ``slides`` measured slides recorded."""

    slides: int
    #: kind -> [(start, wall s, cpu s)] for "advance", "background",
    #: "checkpoint" and "restore".
    timings: dict[str, list[tuple[float, float, float]]] = field(
        default_factory=lambda: {
            "advance": [],
            "background": [],
            "checkpoint": [],
            "restore": [],
        }
    )
    work: list[float] = field(default_factory=list)
    plan_steps: list[int] = field(default_factory=list)
    batched_steps: list[int] = field(default_factory=list)
    plan_cache_hits: int = 0
    children_cpu_s: float = 0.0
    checkpoint_bytes: int = 0
    #: ``report.space`` of the last advance: keys the engine retains.
    space_keys: float = 0.0


class Session:
    def __init__(
        self, workload: Workload, seed: int, timeline: Timeline, scratch: Path
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.timeline = timeline
        self.scratch = scratch
        self.stream: list = []
        self.position = 0
        self.job = None
        self.engine: Slider | None = None
        #: Operations planned so far, and those that raised, were skipped
        #: because an earlier one raised, or failed an oracle check.
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._completed = 0
        self._checkpoints = 0

    # -- stream ---------------------------------------------------------------

    def generate(self, slides: int) -> None:
        """Make the input of the whole run: the first window plus
        ``slides`` slides."""
        workload = self.workload
        self.stream = make_stream(
            workload,
            self.seed,
            workload.window + workload.step * slides,
            self.timeline,
        )

    def _next_splits(self) -> list:
        step = self.workload.step
        added = self.stream[self.position : self.position + step]
        if len(added) != step:
            raise RuntimeError("the stream ran out: generate() was sized too small")
        self.position += step
        return added

    # -- set-up and warm-up ---------------------------------------------------

    def _build(self) -> tuple:
        workload = self.workload
        job = workload.make_job()
        engine = workload.make_engine(job)
        engine.initial_run(self.stream[: workload.window])
        self.position = workload.window
        for _ in range(workload.setup_ops):
            if workload.background:
                engine.background_preprocess()
            engine.advance(self._next_splits(), workload.step)
        return job, engine

    def set_up(self, repetitions: int) -> list[float]:
        """Build ``repetitions`` fresh engines over the same inputs and
        keep the last; returns each repetition's normalised seconds."""
        timeline = self.timeline
        seconds = []
        for _ in range(repetitions):
            if self.engine is not None:
                self.engine.close()
                self.job = self.engine = None
            # An engine is cyclic garbage: collect the previous one (and
            # what generating the stream left) now, not inside the next
            # repetition's timer.
            gc.collect()
            timeline.calibrate()
            (self.job, self.engine), start, wall, _ = timeline.timed(self._build)
            timeline.calibrate()
            seconds.append(wall * timeline.factor(start, wall))
        return seconds

    def run_untimed(self, slides: int) -> None:
        workload = self.workload
        for _ in range(slides):
            if workload.background:
                self.engine.background_preprocess()
            self.engine.advance(self._next_splits(), workload.step)
            self.timeline.calibrate_if_due()

    def warm_up(self) -> None:
        """Slide until ``warmup_ops`` slides have run on the kept engine,
        counting those inside its set-up."""
        self.run_untimed(self.workload.warmup_ops - self.workload.setup_ops)

    # -- the measured loop ----------------------------------------------------

    def planned_operations(self, slides: int) -> int:
        workload = self.workload
        checkpoints = slides // workload.checkpoint_every
        restores = checkpoints // 2
        batch_checks = sum(
            1
            for done in range(1, slides + 1)
            if done % workload.oracle_every == 0 or done == slides
        )
        return (
            slides * (2 if workload.background else 1)
            + checkpoints
            + 2 * restores  # each restore is compared with the live engine
            + batch_checks
        )

    def measure(self, slides: int, tracer=None) -> Measurement:
        """Run ``slides`` measured slides; with ``tracer`` the engine's
        layer entry points are wrapped and every slide is one trace."""
        planned = self.planned_operations(slides)
        self.attempted += planned
        measurement = Measurement(slides)
        self._completed = 0
        self._checkpoints = 0
        children_before = children_cpu_seconds()
        if tracer is not None:
            tracer.install(self.engine)
        try:
            for index in range(slides):
                self._slide(index, slides, measurement, tracer)
                self.timeline.calibrate_if_due()
        except Exception as exc:  # the run stops; the rest counts as failed
            self.problems.append(f"{type(exc).__name__}: {exc}")
            self.failed += planned - self._completed
        finally:
            if tracer is not None:
                tracer.uninstall()
        measurement.children_cpu_s = children_cpu_seconds() - children_before
        return measurement

    def _slide(self, index: int, slides: int, measurement, tracer) -> None:
        """One measured slide and whatever is due after it.
        ``self._completed`` counts operations as they finish, so that a
        raise part-way leaves an exact count."""
        workload = self.workload
        timeline = self.timeline
        timings = measurement.timings
        if tracer is not None:
            tracer.begin_slide(index)
        if workload.background:
            _, *timing = timeline.timed(self.engine.background_preprocess)
            timings["background"].append(tuple(timing))
            self._completed += 1
        added = self._next_splits()
        engine = self.engine
        result, *timing = timeline.timed(
            lambda: engine.advance(added, workload.step)
        )
        timings["advance"].append(tuple(timing))
        self._completed += 1
        measurement.work.append(result.report.work)
        measurement.space_keys = result.report.space
        measurement.plan_steps.append(len(result.plan))
        measurement.plan_cache_hits += bool(result.plan_cache_hit)
        measurement.batched_steps.append(
            result.compiled.batched_step_count() if result.compiled else 0
        )
        slide_number = index + 1
        if slide_number % workload.checkpoint_every == 0:
            self._checkpoint(result.outputs, measurement, tracer)
        if slide_number % workload.oracle_every == 0 or slide_number == slides:
            self._check(oracle.check_against_batch(
                self.engine, result.outputs, workload.rtol
            ), f"slide {index}")

    def _checkpoint(self, outputs: dict, measurement, tracer) -> None:
        timeline = self.timeline
        timings = measurement.timings
        path = self.scratch / f"checkpoint-{self._checkpoints}"
        self._checkpoints += 1
        engine = self.engine
        # A run has a handful of these, so each is bracketed by samples of
        # its own.  With the loop's samples (up to 100 ms old) normalising
        # did not steady the median checkpoint of hct_var_w40 at all
        # (spread 9.5 % against 9.3 % raw over ten runs); with its own the
        # variation over 24 runs fell from 15 % raw to 6 %.
        timeline.calibrate()
        _, *timing = timeline.timed(lambda: engine.checkpoint(path), collector=False)
        timeline.calibrate()
        timings["checkpoint"].append(tuple(timing))
        self._completed += 1
        measurement.checkpoint_bytes = sum(
            entry.stat().st_size for entry in path.iterdir()
        )
        if self._checkpoints % 2 == 0:
            job = self.job
            restored, *timing = timeline.timed(
                lambda: Slider.restore(path, job), collector=False
            )
            timeline.calibrate()
            timings["restore"].append(tuple(timing))
            self._completed += 1
            # Exact even on kmeans: a restored engine holds the very
            # floats the live one computed.
            self._check(
                oracle.mismatches(restored.current_outputs(), outputs, 0.0),
                f"restore {self._checkpoints // 2}",
            )
            if self.workload.continue_restored:
                self.engine.close()
                self.engine = restored
                if tracer is not None:
                    tracer.install(restored)
            else:
                restored.close()
        shutil.rmtree(path)

    def _check(self, problems: list[str], where: str) -> None:
        self._completed += 1
        if problems:
            self.failed += 1
            self.problems.append(
                f"oracle at {where}: {len(problems)} differences, "
                f"first: {problems[0]}"
            )

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None


def close_engines() -> None:
    """Close every engine still alive, whoever holds it: a raise between
    ``Slider.restore`` and ``close`` must not leave workers or a shared
    segment to the interpreter's exit."""
    gc.collect()
    for item in gc.get_objects():
        if isinstance(item, Slider):
            item.close()
