"""Process-backend equivalence: the seam is invisible, bit for bit.

The oracle (``tests/oracle``) holds a process arm to an in-process
reference after every rule of every walk — outputs, work, breakdown,
space, graph and plan node for node, cumulative per-phase totals to the
last bit, counters minus ``backend.*`` — and fails a walk whose process
arm did not dispatch.  The cases here are short scripted walks of that
fleet, one per configuration this suite has always named.
"""

import pytest

from repro.core.backends import ProcessBackend
from tests.oracle.fleet import (
    DISPATCHING,
    JOBS,
    VARIANTS,
    Fleet,
    case_of,
    count,
    count_job,
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

