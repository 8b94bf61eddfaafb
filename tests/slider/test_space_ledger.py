"""The retained-space ledger never drifts from a recount of the state.

``engine.space()`` is read from counts kept where retained partitions
are inserted and evicted; ``LifecycleManager.recount()`` walks them all.
That the two are equal after every step, that a collection leaves exactly
the window's splits in the map memo, and that each ``report.space``
equals that of an engine whose ``space`` *is* the recount (the oracle's
``recount`` arm) are invariants of every walk of ``tests/oracle``.  Here:
the walks this suite has always named, and the unit cases of the counts.
"""

from __future__ import annotations

import copy

import pytest

from repro.cluster.machine import Cluster, ClusterConfig
from repro.core.memo import DictMemoStore
from repro.core.partition import Partition
from repro.mapreduce.types import SplitWindow
from repro.slider.system import Slider
from repro.slider.window import WindowMode
from tests.oracle.fleet import ALL, CASES, JOBS, Fleet, case_of, count, count_job

_job = count_job
_split = JOBS["counts"][1]  # between 3 and 9 keys: a miscounted partition shows


def test_space_equals_recount_after_every_step():
    """With a cluster attached to every arm (its cache's collection walks
    the trees' entries) and a restore.  A rebuilding folding tree's count
    is held to its recount in ``tests/core/test_folding_tree.py``."""
    cluster = lambda: {
        "cluster": Cluster(ClusterConfig(num_machines=4, straggler_fraction=0.0))
    }
    for case in CASES:
        arms = ("reference", "recount", "restored")
        with Fleet(case, arms=arms, common=cluster) as fleet:
            for step in (
                lambda: fleet.advance(3, 1),
                lambda: fleet.crash(seed=1, machine=1),
                lambda: fleet.advance(2, ALL, repeat=True),
                fleet.background,
                lambda: fleet.advance(0, 2),
                fleet.collect,
                lambda: fleet.kill("recount"),
                lambda: fleet.advance(2, 3),
            ):
                step()
                fleet.check()


@pytest.mark.parametrize(
    "variant,mode",
    [
        ("folding", WindowMode.VARIABLE),
        ("rotating", WindowMode.FIXED),
        ("coalescing", WindowMode.APPEND),
    ],
)
def test_count_survives_the_process_seam_and_an_inprocess_interlude(variant, mode):
    """The tree's count rides in its state: the worker that ran the
    advance kept it, and an in-process run between two dispatches picks
    it up and hands it back."""
    with Fleet(case_of(variant), arms=("reference", "recount", "process")) as fleet:
        engine = fleet.engines["process"]
        fleet.steady(3)
        fleet.interlude()
        local = count(engine, "backend.inprocess_runs")
        fleet.steady(3)
        fleet.check()
        assert count(engine, "backend.inprocess_runs") > local
        assert count(engine, "backend.worker_fallbacks") == 0


def test_window_counts_what_left_and_what_came_back():
    a, b, c = (_split(i) for i in range(3))
    window = SplitWindow([a, b])
    window.append([a, c])  # a is in the window twice
    assert window.counts == {a.uid: 2, b.uid: 1, c.uid: 1}
    window.drop_front(2)  # one a stays
    assert window.take_departed() == {b.uid}
    window.drop_front(2)
    assert window.departed == {a.uid, c.uid}
    window.append([c])  # back before it was collected
    assert window.take_departed() == {a.uid}
    assert window.take_departed() == set()
    assert window.counts == {c.uid: 1}


def test_every_advance_collects_what_left():
    """An engine collects after every advance: each leaves exactly the
    window's splits in the map memo, and a collection then finds none."""
    engine = Slider(_job(), WindowMode.VARIABLE)
    try:
        engine.initial_run([_split(i) for i in range(4)])
        for i in range(4, 12):
            engine.advance([_split(i)], 1)
            assert set(engine.map_memo) == {split.uid for split in engine.window}
        assert len(engine.map_memo) == 4
        assert engine.collect_garbage() == 0
        assert engine.space() == engine.lifecycle.recount()
    finally:
        engine.close()


def test_dict_store_keeps_its_sum_through_every_verb():
    store = DictMemoStore()
    one, two, three = (Partition({j: 1 for j in range(n)}) for n in (1, 2, 3))
    store[1] = one
    store[2] = two
    store[1] = three  # overwrite
    assert store.space() == 5.0
    del store[2]
    assert store.pop(1) is three and store.pop(1, None) is None
    assert store.space() == 0.0
    store[7] = two
    assert copy.copy(store).space() == store.space() == 2.0
    store.clear()
    assert store.space() == 0.0 and not store
