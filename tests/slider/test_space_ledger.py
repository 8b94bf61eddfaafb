"""The retained-space ledger never drifts from a recount of the state.

``engine.space()`` is read from counts kept where retained partitions
are inserted and evicted; ``LifecycleManager.recount()`` walks them all.
Over random schedules, after every step: the two are equal, a collection
leaves exactly the window's splits in the map memo, and each
``report.space`` equals that of a twin engine whose ``space`` *is* the
recount.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.chaos import ChaosPlan, ChaosSchedule, CorruptionEvent
from repro.cluster.machine import Cluster, ClusterConfig
from repro.core.memo import DictMemoStore
from repro.core.partition import Partition
from repro.mapreduce.types import Split, SplitWindow
from repro.slider.equivalence import _scenario_job as _job
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode

#: (variant, its window mode, split_mode)
CASES = (
    ("folding", WindowMode.VARIABLE, False),
    ("randomized", WindowMode.VARIABLE, False),
    ("strawman", WindowMode.VARIABLE, False),
    ("rotating", WindowMode.FIXED, False),
    ("rotating", WindowMode.FIXED, True),
    ("coalescing", WindowMode.APPEND, False),
    ("coalescing", WindowMode.APPEND, True),
)
ALL = -1  # "remove every split": the window-emptying eviction


def _split(i: int) -> Split:
    # Between 3 and 9 keys, so that a miscounted partition shows.
    return Split.from_records(
        [f"k{(i * 5 + j) % 17}" for j in range(3 + i % 7)], label=f"s{i}"
    )


_ADVANCE = st.tuples(
    st.just("advance"),
    st.integers(0, 3),  # splits added (a k-split bulk move when > 1)
    st.sampled_from([0, 0, 1, 1, 2, 3, ALL]),  # splits removed
    st.booleans(),  # first added split repeats the window's newest
)
_STEPS = st.lists(
    st.one_of(
        _ADVANCE,
        _ADVANCE,
        st.just(("background",)),
        st.just(("collect",)),
        st.just(("restore",)),
    ),
    min_size=1,
    max_size=10,
)


class _Pair:
    """An engine and its twin, which recounts instead of reading counts."""

    def __init__(self, case, config: dict, cluster: bool, corrupt_runs) -> None:
        variant, self.mode, split_mode = case
        self.job = _job()
        self.auto_gc = config["auto_gc"]
        chaos = ChaosPlan(
            schedules={
                run: ChaosSchedule(corruptions=[CorruptionEvent(count=2)], seed=run)
                for run in corrupt_runs
            }
        )
        self.engines = [
            Slider(
                self.job,
                self.mode,
                SliderConfig(
                    mode=self.mode, tree=variant, split_mode=split_mode, **config
                ),
                cluster=(
                    Cluster(ClusterConfig(num_machines=4, straggler_fraction=0.0))
                    if cluster
                    else None
                ),
                chaos=chaos if corrupt_runs else None,
            )
            for _ in range(2)
        ]
        self._make_twin()
        self.next_split = 5
        self.both(lambda e: e.initial_run([_split(i) for i in range(5)]))

    def _make_twin(self) -> None:
        twin = self.engines[1]
        twin.lifecycle.space = twin.lifecycle.recount

    def both(self, operation):
        first, second = (operation(engine) for engine in self.engines)
        engine = self.engines[0]
        assert engine.space() == engine.lifecycle.recount()
        return first, second

    def collected(self) -> None:
        engine = self.engines[0]
        assert set(engine.map_memo) == {split.uid for split in engine.window}

    def advance(self, add: int, remove: int, repeat: bool) -> None:
        window = self.engines[0].window
        if self.mode is WindowMode.APPEND:
            remove = 0
        elif self.mode is WindowMode.FIXED:
            add = remove = min(add, len(window))
        else:
            remove = len(window) if remove == ALL else min(remove, len(window))
        added = [_split(self.next_split + i) for i in range(add)]
        self.next_split += add
        if repeat and added and len(window) > remove:
            added[0] = window.splits[-1]
        result, twin = self.both(lambda e: e.advance(list(added), remove))
        assert result.report.space == twin.report.space
        assert result.outputs == twin.outputs
        if self.auto_gc:
            self.collected()

    def restore(self, directory) -> None:
        for index, engine in enumerate(self.engines):
            path = directory / f"engine{index}"
            engine.checkpoint(path)
            engine.close()
            self.engines[index] = Slider.restore(path, self.job)
        self._make_twin()
        self.both(lambda e: None)

    def close(self) -> None:
        for engine in self.engines:
            engine.close()


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(CASES),
    auto_gc=st.booleans(),
    rebuild=st.booleans(),
    cluster=st.booleans(),
    corrupt_runs=st.sets(st.integers(1, 6), max_size=2),
    steps=_STEPS,
)
def test_space_equals_recount_after_every_step(
    tmp_path_factory, case, auto_gc, rebuild, cluster, corrupt_runs, steps
):
    config = {"auto_gc": auto_gc}
    if case[0] == "folding" and rebuild:
        config["rebuild_factor"] = 2
    pair = _Pair(case, config, cluster, corrupt_runs)
    try:
        for step in steps:
            if step[0] == "advance":
                pair.advance(*step[1:])
            elif step[0] == "background":
                pair.both(lambda e: e.background_preprocess())
            elif step[0] == "collect":
                pair.both(lambda e: e.collect_garbage())
                pair.collected()
            else:
                pair.restore(tmp_path_factory.mktemp("ledger"))
        pair.engines[0].verify_outputs()
    finally:
        pair.close()


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
    advance kept it, and an in-process run between two dispatches (here
    forced by emptying the plan cache) picks it up and hands it back.
    Only these three variants' plans are cacheable, so only they
    dispatch."""
    job = _job()
    config = SliderConfig(
        mode=mode, tree=variant, execution_backend="process", workers=2
    )
    engine, twin = (Slider(job, mode, config) for _ in range(2))
    twin.lifecycle.space = twin.lifecycle.recount
    removed = 0 if mode is WindowMode.APPEND else 1
    fresh = map(_split, range(6, 10_000))

    def dispatches() -> float:
        return engine.telemetry.counters.get("backend.dispatch_runs", 0)

    def slide_until_dispatched(runs: int) -> None:
        target = dispatches() + runs
        for _ in range(40 * runs + 40):
            if dispatches() >= target:
                return
            added = [next(fresh)]
            a, b = (e.advance(list(added), removed) for e in (engine, twin))
            assert a.report.space == b.report.space
            assert engine.space() == engine.lifecycle.recount()
        raise AssertionError("the engine stopped dispatching")

    try:
        for e in (engine, twin):
            e.initial_run([_split(i) for i in range(6)])
        slide_until_dispatched(3)
        for e in (engine, twin):
            e.plan_cache.clear()
        local = engine.telemetry.counters.get("backend.inprocess_runs", 0)
        slide_until_dispatched(3)
        assert engine.telemetry.counters["backend.inprocess_runs"] > local
        assert engine.telemetry.counters.get("backend.worker_fallbacks", 0) == 0
    finally:
        engine.close()
        twin.close()


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


def test_collecting_after_many_advances_without_auto_gc():
    engine = Slider(
        _job(), WindowMode.VARIABLE, SliderConfig(auto_gc=False)
    )
    try:
        engine.initial_run([_split(i) for i in range(4)])
        for i in range(4, 12):
            engine.advance([_split(i)], 1)
        assert len(engine.map_memo) == 12
        assert engine.collect_garbage() == 8
        assert set(engine.map_memo) == {split.uid for split in engine.window}
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
