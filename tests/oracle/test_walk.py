"""The oracle as one long deterministic walk a case: the reachability gate.

The same fleet, the same rules, a fixed script that fires every one of
them — so that what must be *reachable* can be read off the engines' own
counters (``coverage`` is not installed here): every rule fired, every
fallback and degradation signal was seen on some arm, every kind of task
node and every plan op was compared, and the process arm crossed the
seam.  A rung that cannot be made to fire here has no test anywhere; it
is deleted, not listed as an exception.  The script runs over two
streams: the small word count, and the key-heavy word pairs, whose
partitions reach the pair path on every arm.  Along the way, every node
the reference builds keeps its uid unmade until something reads it: a
positional tree reads none, the randomized tree its leaves' only.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator

import pytest

import repro
from repro.core import execute, partition
from repro.core.partition import Partition
from repro.core.plan import NODE_KINDS, PLAN_OPS
from repro.slider.window import WindowMode
from tests.oracle.fleet import ARMS, ALL, CASES, DISPATCHING, Fleet, case_of, count
from tests.oracle.fleet import held_partitions

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
    # A crash mid-wave, the machine back before the run ends: the run
    # keys as a calm one, so the steady advance after it dispatches.
    lambda f: f.crash(seed=3, machine=1, recover=True),
    lambda f: f.steady(1),
    lambda f: f.advance(2, 1),
    lambda f: f.fail_backing(),
    lambda f: f.advance(),
    *(lambda f, machine=machine: f.fail_machine(machine) for machine in range(4)),
    lambda f: f.advance(),
    lambda f: f.crash(seed=5, machine=2),  # down until the next run heals it
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
    "advance", "steady", "background", "collect", "kill", "move",
    "interlude", "crash", "fail_backing", "fail_machine", "forget_row",
}

#: The fallback, degradation and fault signals: each fires in some case.
SIGNALS = {
    "backend.inprocess_runs", "backend.dispatch_runs", "backend.dispatched_reducers",
    "backend.payload_bytes", "backend.reply_bytes", "backend.partitions_by_ref",
    "backend.partitions_by_value", "backend.unpicklable_fallbacks",
    "backend.worker_fallbacks", "backend.worker_failed", "backend.pool_failed",
    "memo.hits", "memo.misses", "memo.evictions",
    "memo.degraded", "memo.backing_degraded", "memo.degraded_resets",
    "memo.degraded_reset", "plan_cache.hits", "plan_cache.misses",
    "plan_cache.uncacheable", "cache.fallback_reads",
    # The crash rule fells a machine mid-wave, and once brings it back.
    "executor.crashes", "executor.recoveries",
    # Why an advance's Reduce visited every root key, not the slide's keys.
    "reduce.scan.inexact", "reduce.scan.departed_row",
}


@contextmanager
def combines_counted(reached: Counter) -> Iterator[None]:
    """Count, in this process, the combines that take each pair way:
    ``pair_path`` is ``_merge_pair``, ``small_pair`` a combine of two
    inputs holding fewer than ``_PAIR_PATH_MIN_KEYS`` keys between them
    (under a count-priced combiner, which every walk's job has, that is
    the small-pair loop)."""
    merge_pair, charged = partition._merge_pair, execute.combine_charged

    def pair_path(*args):
        reached["pair_path"] += 1
        return merge_pair(*args)

    def combine(partitions, *args):
        if (
            len(partitions) == 2
            and len(partitions[0].entries) + len(partitions[1].entries)
            < partition._PAIR_PATH_MIN_KEYS
        ):
            reached["small_pair"] += 1
        return charged(partitions, *args)

    partition._merge_pair, execute.combine_charged = pair_path, combine
    try:
        yield
    finally:
        partition._merge_pair, execute.combine_charged = merge_pair, charged


#: The arms whose new nodes must keep their uids unmade: the reference.
#: Not the process arm: its workers hold nodes that crossed after a check
#: made their uids, and a node sent back by value is a new object there
#: (``tests/core/test_lazy_uid.py`` runs the seam with no uid read).
UNREAD = ("reference",)


def unread_uids_stay_unmade(case: tuple, fleet: Fleet, before: dict) -> dict:
    """What each :data:`UNREAD` arm holds now, after asserting that each
    partition it did not hold at the last check (``before``, kept alive
    so that no id is reused) has no uid yet -- but a randomized tree's
    leaf, whose uid its coins read.  Nothing is asserted on the strawman,
    which reads every child's uid, nor of an arm the step restored, whose
    sweep made every uid."""
    now = {}
    for name in UNREAD:
        engine = fleet.engines[name]
        now[name] = engine, held_partitions(engine)
        was, held = before[name]
        if case[0] == "strawman" or engine is not was:
            continue
        leaves = {id(p) for row in engine.map_memo.values() for p in row}
        made = [
            p
            for key, p in now[name][1].items()
            if key not in held
            and p._uid is not None
            and p is not Partition.empty()  # its uid is symbolic
            and not (case[0] == "randomized" and key in leaves)
        ]
        assert made == [], (case, name, len(made))
    return now


def walk(case: tuple, job: str = "counts") -> SimpleNamespace:
    """The script over ``case`` and ``job``'s stream (once a session), and
    what it saw."""
    return _walk(case, job)


@functools.cache
def _walk(case: tuple, job: str) -> SimpleNamespace:
    reached: Counter = Counter()
    with combines_counted(reached):
        with Fleet(case, job=job) as fleet:
            assert partition._priced_by_count(fleet.job.combiner)
            fleet.check()
            held = {
                name: (fleet.engines[name], held_partitions(fleet.engines[name]))
                for name in UNREAD
            }
            for step in SCRIPT:
                step(fleet)
                held = unread_uids_stay_unmade(case, fleet, held)
                reached["unmade"] += 1
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
        reached=reached,
    )


def _holds_and_fires_every_rule(case: tuple, seen: SimpleNamespace) -> None:
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


@pytest.mark.parametrize("case", CASES, ids=lambda case: f"{case[0]}-{case[2]}")
def test_the_walk_holds_and_fires_every_rule(case):
    seen = walk(case)
    _holds_and_fires_every_rule(case, seen)
    # Its partitions hold at most 17 keys, so every pair of them is under
    # the pair path's gate: the small-pair loop.
    reached = {name for name, n in seen.reached.items() if n}
    assert {"small_pair", "unmade"} <= reached, seen.reached
    assert "pair_path" not in reached, seen.reached


@pytest.mark.parametrize("case", CASES, ids=lambda case: f"{case[0]}-{case[2]}")
def test_the_key_heavy_walk_reaches_the_pair_path_and_makes_no_unread_uid(case):
    """The same script over the key-heavy stream holds as well, and
    reaches what the small one never does."""
    seen = walk(case, "pairs")
    _holds_and_fires_every_rule(case, seen)
    reached = {name for name, n in seen.reached.items() if n}
    assert {"pair_path", "small_pair", "unmade"} <= reached, seen.reached


@functools.cache
def declared_scans() -> set[str]:
    """What a short walk saw whose every Reduce scans by declaration: a
    combiner that is not ``exact``."""
    with Fleet(case_of("folding"), job="kmeans") as fleet:
        for motion in ((1, 1), (2, 1), (0, 2)):
            fleet.advance(*motion)
            fleet.check()
    return fleet.signals


def test_every_fallback_and_degradation_signal_fires():
    fired = set().union(declared_scans(), *(walk(case).signals for case in CASES))
    assert SIGNALS - fired == set()


def test_only_a_reason_to_scan_takes_reduce_off_the_candidate_path():
    """The two clauses fire (above), and nothing else does: an exact job
    scans only where a leaving row was dropped by hand -- never in a
    fault run, whose schedule changes only simulated time."""
    for case in CASES:
        seen = walk(case)
        scans = {name for name in seen.signals if name.startswith("reduce.scan")}
        dropped = case[1] is not WindowMode.APPEND  # forget_row fired
        assert scans == ({"reduce.scan.departed_row"} if dropped else set())
    assert "reduce.scan.inexact" in declared_scans()


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
