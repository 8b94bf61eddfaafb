"""The oracle as one long deterministic walk a case: the reachability gate.

The same fleet, the same rules, a fixed script that fires every one of
them — so that what must be *reachable* can be read off the engines' own
counters (``coverage`` is not installed here): every rule fired, every
fallback and degradation signal was seen on some arm, every kind of task
node and every plan op was compared, and the process arm crossed the
seam.  A rung that cannot be made to fire here has no test anywhere; it
is deleted, not listed as an exception.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.core.plan import PLAN_OPS
from repro.core.taskgraph import NODE_KINDS
from repro.core.poison import PoisonPolicy
from repro.slider.window import WindowMode
from tests.oracle.fleet import ARMS, ALL, CASES, DISPATCHING, Fleet, case_of, count

#: Every step is followed by :meth:`Fleet.check`.
SCRIPT = (
    # Motion: a bulk move, zero-add, the window-emptying eviction with a
    # repeated split, background work before a slide, a late collection.
    lambda f: f.advance(2, 1),
    lambda f: f.advance(0, 0),
    lambda f: f.advance(3, ALL, repeat=True),
    lambda f: f.advance(2, 2, repeat=True),
    lambda f: f.advance(1, 0, back=True),
    lambda f: f.background(),
    lambda f: f.advance(),
    lambda f: f.collect(),
    lambda f: f.advance(3, 0),  # a window wide enough to memoize groups
    lambda f: f.advance(3, 0),
    lambda f: f.steady(3),
    lambda f: f.forget_row(),  # by now no split is in the window twice
    # Repaired copies (same uid, new object) then cross the seam in full.
    lambda f: f.corrupt(seed=3, victims=2),
    lambda f: f.steady(1),
    lambda f: f.advance(2, 1, starved=True),
    lambda f: f.fail_backing(),
    lambda f: f.advance(),
    *(lambda f, machine=machine: f.fail_machine(machine) for machine in range(4)),
    lambda f: f.advance(),
    lambda f: f.corrupt(seed=5, victims=99),  # whatever is read next is bad
    lambda f: f.advance(0, 3),  # narrow again: a short structural period
    lambda f: f.advance(0, 3),
    lambda f: f.interlude(),
    lambda f: f.steady(1),
    lambda f: f.unpicklable(),
    lambda f: f.move(),
    lambda f: f.advance(2, 2),
    lambda f: f.move(),
    lambda f: f.steady(2),
    # Each way a dispatch fails; a restore is the only way back.
    lambda f: f.kill_worker(hard=False),
    lambda f: f.kill("process"),
    lambda f: f.steady(1),
    lambda f: f.kill_worker(hard=True),
    lambda f: f.kill("process"),
    lambda f: f.pool_failure(),
    *(lambda f, name=name: (f.kill(name), f.advance(1, 1)) for name in ARMS),
    lambda f: f.steady(1),
)

#: Rules only a variant that dispatches can fire.
SEAM_RULES = {"kill_worker", "pool_failure", "unpicklable"}
RULES = SEAM_RULES | {
    "advance", "starved", "steady", "background", "collect", "kill", "move",
    "interlude", "corrupt", "fail_backing", "fail_machine", "forget_row",
}

#: The fallback, degradation and repair signals: each fires in some case.
SIGNALS = {
    "backend.inprocess_runs", "backend.dispatch_runs", "backend.dispatched_reducers",
    "backend.payload_bytes", "backend.reply_bytes", "backend.partitions_by_ref",
    "backend.partitions_by_value", "backend.unpicklable_fallbacks",
    "backend.worker_fallbacks", "backend.worker_failed", "backend.pool_failed",
    "memo.hits", "memo.misses", "memo.evictions", "memo.skipped_stores",
    "memo.budget_exhausted", "memo.corruptions", "memo.corruption_dropped",
    "memo.degraded", "memo.backing_degraded", "memo.degraded_resets",
    "memo.degraded_reset", "plan_cache.hits", "plan_cache.misses",
    "plan_cache.uncacheable", "plan_cache.bypasses", "recovery.corruption",
    "recovery.corruptions_injected", "recovery.corruptions_repaired",
    "cache.fallback_reads",
    # Why an advance's Reduce visited every root key, not the slide's keys.
    "reduce.scan.inexact", "reduce.scan.poison_policy", "reduce.scan.chaos",
    "reduce.scan.departed_row",
}


@functools.cache
def walk(case: tuple) -> SimpleNamespace:
    """The script over ``case`` (once a session), and what it saw."""
    # Every other case collects only when the script says so, so that a
    # split can come back while its map output is still retained.
    with Fleet(case, auto_gc=CASES.index(case) % 2 == 0) as fleet:
        fleet.check()
        for step in SCRIPT:
            step(fleet)
            fleet.check()
        process = fleet.engines["process"]
        seam = {
            name: count(process, f"backend.{name}")
            for name in ("dispatch_runs", "worker_fallbacks")
        }
    return SimpleNamespace(
        fired=dict(fleet.fired),
        signals=fleet.signals,
        kinds=fleet.kinds,
        ops=fleet.ops,
        seam=seam,
        replica_reads=fleet.replica_reads,
    )


@pytest.mark.parametrize("case", CASES, ids=lambda case: f"{case[0]}-{case[2]}")
def test_the_walk_holds_and_fires_every_rule(case):
    seen = walk(case)
    expected = RULES if case[0] in DISPATCHING else RULES - SEAM_RULES
    if case[1] is WindowMode.APPEND:
        expected = expected - {"forget_row"}  # nothing ever leaves
    assert set(seen.fired) == expected
    if case[0] in DISPATCHING:
        # Not vacuous: the process arm crossed the seam, and fell back
        # only where kill_worker(hard=False) made it.
        assert seen.seam["dispatch_runs"] > 10
        assert seen.seam["worker_fallbacks"] == 1
    else:
        assert seen.seam == {"dispatch_runs": 0, "worker_fallbacks": 0}
    # The variant that memoizes: its cluster arm healed a corrupt copy
    # from the intact replica, where the reference recomputed it.
    assert (seen.replica_reads > 0) == (case[0] == "randomized")


@functools.cache
def declared_scans() -> set[str]:
    """What two short walks saw whose every Reduce scans by declaration:
    a combiner that is not ``exact``, and a poison policy."""
    signals: set[str] = set()
    for job, config in (("kmeans", {}), ("counts", {"poison_policy": PoisonPolicy(1)})):
        with Fleet(case_of("folding"), job=job, **config) as fleet:
            for motion in ((1, 1), (2, 1), (0, 2)):
                fleet.advance(*motion)
                fleet.check()
        signals |= fleet.signals
    return signals


def test_every_fallback_and_degradation_signal_fires():
    fired = set().union(declared_scans(), *(walk(case).signals for case in CASES))
    assert SIGNALS - fired == set()


def test_only_a_reason_to_scan_takes_reduce_off_the_candidate_path():
    """The four clauses fire (above), and nothing else does: an exact job
    with no policy scans in its fault runs and the row dropped by hand."""
    for case in CASES:
        seen = walk(case)
        scans = {name for name in seen.signals if name.startswith("reduce.scan")}
        assert "reduce.scan.chaos" in scans
        assert scans <= {"reduce.scan.chaos", "reduce.scan.departed_row"}
    assert "reduce.scan.inexact" in declared_scans()
    assert "reduce.scan.poison_policy" in declared_scans()


def test_every_signal_named_under_src_is_in_the_gate():
    named = set()
    pattern = re.compile(
        r'(?:count|instant)\(\s*'
        r'"((?:backend|memo|plan_cache|recovery|cache\.fallback|reduce\.scan)[^"]*)"'
    )
    for path in Path(repro.__file__).parent.rglob("*.py"):
        named.update(pattern.findall(path.read_text()))
    assert named - SIGNALS == set()


def test_every_kind_of_node_and_every_plan_op_is_compared():
    kinds = set().union(*(walk(case).kinds for case in CASES))
    ops = set().union(*(walk(case).ops for case in CASES))
    assert kinds == set(NODE_KINDS) and ops == set(PLAN_OPS)
