"""Process-backend equivalence: the seam is invisible, bit for bit.

The oracle (``tests/oracle``) holds a process arm to an in-process
reference after every rule of every walk — outputs, work, breakdown,
space, graph and plan node for node, cumulative per-phase totals to the
last bit, counters minus ``backend.*`` — and fails a walk whose process
arm did not dispatch.  The cases here are short scripted walks of that
fleet, one per configuration this suite has always named, plus the
dynamic race recorder over real workers.
"""

import pytest

from repro.core.backends import ProcessBackend
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.oracle.fleet import (
    DISPATCHING,
    JOBS,
    VARIANTS,
    Fleet,
    case_of,
    count,
    count_job,
    split_of,
)

TWINS = ("reference", "process")


@pytest.mark.parametrize("variant,mode", VARIANTS, ids=[v for v, _ in VARIANTS])
def test_backends_bit_identical(variant, mode):
    with Fleet(case_of(variant), arms=TWINS) as fleet:
        fleet.steady(6)
        fleet.advance(2, 1)
        fleet.steady(6)
        fleet.check()
        process = fleet.engines["process"]
        if variant in DISPATCHING:
            assert not process.backend.broken
        else:
            # Value-dependent planners never recur, so never dispatch.
            assert count(process, "backend.dispatched_reducers") == 0


def test_dispatch_survives_many_reducers_round_robin():
    """More reducers than workers: round-robin keeps merge order correct."""
    job = (lambda: count_job("round-robin", num_reducers=5), JOBS["counts"][1])
    with Fleet(case_of("folding"), job=job, arms=TWINS) as fleet:
        fleet.steady(4)
        fleet.check()
        assert len(fleet.engines["process"].backend._pool) == 2  # capped


class TestCheckpointAcrossBackends:
    def test_checkpoint_restore_under_process_backend(self):
        with Fleet(case_of("folding"), arms=TWINS) as fleet:
            fleet.steady(2)
            fleet.kill("process")
            assert isinstance(fleet.engines["process"].backend, ProcessBackend)
            fleet.steady(2)
            fleet.check()

    def test_state_moves_between_backends(self):
        """A state captured under one backend applies under the other."""
        with Fleet(case_of("folding"), arms=TWINS) as fleet:
            fleet.steady(2)
            fleet.move()
            fleet.advance()
            fleet.check()
            fleet.move()
            fleet.steady(2)
            fleet.check()


class TestDynamicRecorderOverWorkers:
    def test_recorder_observes_worker_steps_without_unexplained_races(self):
        """The vector-clock cross-check holds over real worker processes:
        worker log records take their place in the parent's log, so the
        recorder reading it sees every remotely executed step — and finds
        no conflict the static pass did not flag."""
        from repro.analysis.dynamic import DynamicRaceRecorder
        from repro.analysis.races import analyze_plan

        recorder = DynamicRaceRecorder()
        config = SliderConfig(execution_backend="process", workers=2)
        engine = Slider(count_job(num_reducers=3), WindowMode.VARIABLE, config)
        try:
            results = [engine.initial_run([split_of(i) for i in range(5)])]
            for i in range(12):
                results.append(engine.advance([split_of(30 + i)], 1))
            for result in results:
                recorder.read(result.plan.log)
            static = [f for result in results for f in analyze_plan(result.plan)]
            assert count(engine, "backend.dispatched_reducers") > 0
            assert recorder.events > 0
            assert recorder.unexplained(static) == []
        finally:
            engine.close()
