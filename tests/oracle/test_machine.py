"""The oracle as a hypothesis state machine: one class a case.

Hypothesis draws the rule sequence (and shrinks a failing one to the
fewest, smallest rules); :class:`~tests.oracle.fleet.Fleet` does the
work and :meth:`Fleet.check` is the invariant after every rule.  Run one
case with ``pytest tests/oracle/test_machine.py -k rotating_split``; the
classes marked ``soak`` are the same machine drawn longer and afresh
each time (``pytest -m soak tests/oracle``).
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from tests.oracle.fleet import ALL, ARMS, CASES, Fleet


class OracleMachine(RuleBasedStateMachine):
    case: tuple = CASES[0]
    fleet: Fleet | None = None

    @initialize(
        job=st.sampled_from(["counts", "counts", "counts", "kmeans"]),
        auto_gc=st.booleans(),
        rebuild=st.booleans(),
    )
    def start(self, job, auto_gc, rebuild):
        config = {"rebuild_factor": 2} if rebuild and self.case[0] == "folding" else {}
        self.fleet = Fleet(self.case, job=job, auto_gc=auto_gc, **config)

    @rule(
        add=st.integers(0, 3),  # zero-add, or a k-split bulk move
        remove=st.sampled_from([0, 0, 1, 1, 2, 3, ALL]),
        repeat=st.booleans(),  # first added split repeats the window's newest
        back=st.booleans(),  # last added split is the newest that had left
        starved=st.sampled_from([False, False, False, True]),
    )
    def advance(self, add, remove, repeat, back, starved):
        self.fleet.advance(add, remove, repeat, back, starved)

    @rule(n=st.integers(1, 3))
    def steady(self, n):
        self.fleet.steady(n)

    @rule()
    def background(self):
        self.fleet.background()

    @rule()
    def collect(self):
        self.fleet.collect()

    @rule()
    def forget_row(self):
        self.fleet.forget_row()

    @rule(arm=st.sampled_from(sorted(ARMS)))
    def kill(self, arm):
        self.fleet.kill(arm)

    @rule()
    def move(self):
        self.fleet.move()

    @rule()
    def interlude(self):
        self.fleet.interlude()

    @rule(seed=st.integers(0, 9), victims=st.integers(1, 3))
    def corrupt(self, seed, victims):
        self.fleet.corrupt(seed, victims)

    @rule(hard=st.booleans())
    def kill_worker(self, hard):
        self.fleet.kill_worker(hard)

    @rule()
    def pool_failure(self):
        self.fleet.pool_failure()

    @rule()
    def unpicklable(self):
        self.fleet.unpicklable()

    @rule()
    def fail_backing(self):
        self.fleet.fail_backing()

    @rule(machine=st.integers(0, 3))
    def fail_machine(self, machine):
        self.fleet.fail_machine(machine)

    @invariant()
    def every_arm_agrees_with_the_reference_and_with_a_run_from_scratch(self):
        if self.fleet is not None:
            self.fleet.check()

    def teardown(self):
        if self.fleet is not None:
            self.fleet.close()


TIER_1 = settings(
    max_examples=6, stateful_step_count=10, deadline=None, derandomize=True
)
SOAK = settings(max_examples=60, stateful_step_count=40, deadline=None)

def _test_case(case: tuple, name: str, how: settings) -> type:
    machine = type(name, (OracleMachine,), {"case": case})
    machine.TestCase.settings = how  # where hypothesis reads them from
    return type(name, (machine.TestCase,), {})


for _case in CASES:
    _name = _case[0] + ("_split" if _case[2] else "")
    globals()[f"TestOracle_{_name}"] = _test_case(_case, f"TestOracle_{_name}", TIER_1)
    globals()[f"TestOracleSoak_{_name}"] = pytest.mark.soak(
        _test_case(_case, f"TestOracleSoak_{_name}", SOAK)
    )
