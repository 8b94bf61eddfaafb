"""Resident trees: a steady dispatch ships the slide, not the tree.

``encode_refs`` / ``decode_refs`` and the state delta over every tree
variant's state, the identity rule, the worker's tree staying the
parent's mirror over a long run, what a steady K-Means dispatch moves,
and each way the two sides can lose step with each other: an in-process
run between two dispatched ones, a restore, a worker that lost its tree.
(A worker that dies is in ``test_backends``.)
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import Slider, SliderConfig, WindowMode
from repro.analysis.shared import audit_value
from repro.apps.registry import APP_REGISTRY
from repro.core import parallel
from repro.core.coalescing import CoalescingTree
from repro.core.folding import FoldingTree
from repro.core.parallel import (
    HeldPartition,
    apply_delta,
    decode_refs,
    encode_refs,
    places_of,
    snapshot,
    state_delta,
    tree_fields,
)
from repro.core.partition import Partition
from repro.core.randomized import RandomizedFoldingTree
from repro.core.rotating import RotatingTree
from repro.core.strawman import StrawmanTree
from repro.mapreduce.combiners import SumCombiner
from tests.oracle.fleet import (
    Fleet,
    by_place,
    case_of,
    count,
    count_job,
    split_of,
    tree_partitions,
)


def _leaf(tag: int) -> Partition:
    return Partition({"sum": tag, "tag": tag % 3, ("u", tag): 1})


def _one_in_one_out(tree, i):
    added = [_leaf(10 + i)]
    tree.advance(added, 1)
    return added


def _rotate(tree, i):
    # Split processing leaves ``_intermediate`` set after a background
    # phase and ``_pending`` (an ``(int, Partition)`` tuple) after the
    # foreground run that used it.
    tree.background_preprocess()
    added = [_leaf(10 + 2 * i), _leaf(11 + 2 * i)]
    tree.advance(added, 2)
    return added


def _append(tree, i):
    added = [_leaf(10 + i)]
    tree.advance(added, 0)  # leaves ``_pending_delta`` set
    return added


#: variant -> (a tree over its first leaves, one slide of it)
VARIANTS = {
    "folding": (lambda: FoldingTree(SumCombiner()), 5, _one_in_one_out),
    "randomized": (
        lambda: RandomizedFoldingTree(SumCombiner(), seed=3), 5, _one_in_one_out
    ),
    "strawman": (lambda: StrawmanTree(SumCombiner()), 5, _one_in_one_out),
    "rotating": (
        lambda: RotatingTree(SumCombiner(), bucket_size=2, split_mode=True),
        8,
        _rotate,
    ),
    "coalescing": (lambda: CoalescingTree(SumCombiner(), split_mode=True), 3, _append),
}


def _tree(variant, advances):
    make, first, slide = VARIANTS[variant]
    tree = make()
    tree.initial_run([_leaf(i) for i in range(first)])
    for i in range(advances):
        slide(tree, i)
    return tree


def _copy(value):
    """``value`` as the other process holds it: equal, its own objects."""
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


class TestRoundTrip:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @settings(max_examples=25, deadline=None)
    @given(advances=st.integers(0, 9), more=st.integers(0, 3))
    def test_state_survives_the_seam(self, variant, advances, more):
        """A re-seed: the tree as it stands, coded against the tree the
        receiver still holds from ``more`` slides ago."""
        tree = _tree(variant, advances)
        held = snapshot(tree_fields(tree))
        theirs = _copy(held)
        for i in range(more):
            VARIANTS[variant][2](tree, advances + i)
        state = tree_fields(tree)
        mine = {id(p) for p in tree_partitions(held)}

        coded, refs, values = encode_refs(state, places_of(held))
        assert refs + values == len(tree_partitions(state))
        # Nothing the receiver holds is in the message in full.
        assert not any(id(p) in mine for p in tree_partitions(coded))

        decoded, refs_in, values_in = decode_refs(_copy(coded), theirs)
        assert (refs_in, values_in) == (refs, values)
        assert by_place(decoded) == by_place(state)
        own = {id(p) for p in tree_partitions(theirs)} | {id(Partition.empty())}
        for sent, got in zip(tree_partitions(state), tree_partitions(decoded)):
            assert (id(got) in own) == (id(sent) in mine or sent is Partition.empty())

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @settings(max_examples=25, deadline=None)
    @given(advances=st.integers(0, 9), slides=st.integers(1, 3))
    def test_a_delta_brings_the_mirror_along(self, variant, advances, slides):
        """A worker's run and its reply: the parent's copy, given only the
        changed slots, ends up holding what the worker's tree holds, its
        own objects in every place it already held them."""
        tree = _tree(variant, advances)
        mirror = _copy(tree_fields(tree))
        for i in range(slides):
            held = tree_fields(tree)
            before = snapshot(held)
            leaves = VARIANTS[variant][2](tree, advances + i)
            delta = state_delta(held, before, tree_fields(tree))
            coded, refs, values = encode_refs(
                (tree.root(), delta), places_of(before, leaves)
            )
            theirs = _copy(leaves)
            kept = {id(p) for p in tree_partitions(mirror) + theirs}
            (root, got), _, _ = decode_refs(_copy(coded), mirror, theirs)
            apply_delta(mirror, got)
            assert by_place(mirror) == by_place(tree_fields(tree))
            assert by_place(root) == by_place(tree.root())
            assert refs + values <= len(tree_partitions(tree_fields(tree))) + 1
            old = {id(p) for p in tree_partitions(before) + leaves}
            for sent, now in zip(
                tree_partitions(tree_fields(tree)), tree_partitions(mirror)
            ):
                if id(sent) in old:
                    assert id(now) in kept or now is Partition.empty()

    def test_variants_cover_every_shape_of_tree_state(self):
        """The fixtures really hold the nested shapes the walker is for."""
        rotating = tree_fields(_tree("rotating", 3))
        assert isinstance(rotating["_bucket_leaves"][0], list)
        assert isinstance(rotating["_pending"], tuple)
        assert isinstance(rotating["_pending"][1], Partition)
        assert isinstance(rotating["_root"], Partition)
        assert isinstance(rotating["_intermediate_slot"], (int, type(None)))
        rotating_bg = _tree("rotating", 3)
        rotating_bg.background_preprocess()
        assert isinstance(tree_fields(rotating_bg)["_intermediate"], Partition)
        triple = next(iter(tree_fields(_tree("strawman", 3))["_cache"].values()))
        assert isinstance(triple[0], int) and isinstance(triple[2], Partition)
        assert isinstance(tree_fields(_tree("coalescing", 2))["_pending_delta"], Partition)
        assert None in tree_fields(_tree("folding", 3))["_slots"]

    def test_unrecognised_values_cross_by_value(self):
        class Opaque:
            def __init__(self, partition):
                self.partition = partition

        leaf = _leaf(1)
        opaque = Opaque(leaf)
        (marked, where), refs, values = encode_refs(
            {"x": opaque, "n": 7, "s": {leaf.uid}}, places_of({"leaf": leaf})
        )
        assert marked["x"] is opaque and marked["n"] == 7
        assert marked["s"] == {leaf.uid}
        assert (where, refs, values) == ([], 0, 0)

    def test_the_mark_passes_the_serializability_audit(self):
        assert audit_value(HeldPartition, "dispatch:mark") == []
        coded = ([HeldPartition, 3, None], [("_cache", (1, 2)), 0, None])
        assert audit_value(coded, "dispatch:coded") == []
        assert pickle.loads(pickle.dumps(HeldPartition)) is HeldPartition


class TestIdentityRule:
    def test_a_copy_with_the_same_uid_travels_in_full(self):
        tree = _tree("folding", 6)
        held = snapshot(tree_fields(tree))
        key, genuine = next((k, v) for k, v in tree._cache.items() if v)
        corrupt = Partition({**genuine.entries, "rot": 1}, uid=genuine.uid)
        tree._cache[key] = corrupt
        # The mirror no longer equals its snapshot: the next dispatch
        # re-seeds, and the copy travels by value.
        assert held != tree_fields(tree)
        (marked, where), _, _ = encode_refs(tree_fields(tree), places_of(held))
        assert marked["_cache"][key] is corrupt
        others = [
            value
            for k, value in marked["_cache"].items()
            if k != key and tree._cache[k] is not genuine
        ]
        assert others
        assert all(value is HeldPartition for value in others)

    def test_a_missing_reference_raises(self):
        with pytest.raises(LookupError):
            decode_refs(([HeldPartition], [("_root",)]), {})
        with pytest.raises(LookupError):
            decode_refs(([HeldPartition], [0]), {}, [])


# -- engines ------------------------------------------------------------------
#
# Scripted walks of the oracle's fleet (``tests/oracle``), which after
# every dispatched run of every walk holds each worker's tree to the
# parent's mirror (``Fleet._resident_is_the_mirror``).

TWINS = ("reference", "process")
#: Eight keys no other split has all of: every leaf's content, and with
#: it every uid in a tree, is distinct, and neighbours share a key, so
#: every node is a real merge.
DISTINCT = (count_job, lambda i: split_of(i, spread=10**6, n=8))


def _fleet(first=6):
    return Fleet(case_of("folding"), job=DISTINCT, arms=TWINS, first=first)


def _map_memo_objects(engine):
    for reducer, tree in enumerate(engine.trees):
        leaves = zip(tree.window_leaves(), engine.window, strict=True)
        for leaf, split in leaves:
            assert leaf is engine.map_memo[split.uid][reducer]
        reachable = tree_partitions(tree)
        assert len({id(p) for p in reachable}) == len({p.uid for p in reachable})


class TestHeldOnce:
    def test_window_leaves_are_the_map_memo_objects(self):
        """Also across a fold, whose moved leaves and nodes come back as
        the parent's own objects."""
        with _fleet() as fleet:
            fleet.steady(50)
            engine = fleet.engines["process"]
            _map_memo_objects(engine)
            remote = engine.trees[1]  # reducer 0 is the parent's share
            folds = 0
            for _ in range(3 * 64):
                height = remote.height
                before = count(engine, "backend.dispatch_runs")
                fleet.advance()
                dispatched = count(engine, "backend.dispatch_runs") > before
                folds += dispatched and remote.height < height
                if folds:
                    break
            assert folds
            _map_memo_objects(engine)
            fleet.steady(3)
            _map_memo_objects(engine)

    def test_references_engage_and_little_crosses_by_value(self):
        with _fleet() as fleet:
            fleet.steady(20)
            engine = fleet.engines["process"]
            before = dict(engine.telemetry.counters)
            fleet.steady(10)
            moved = {
                name: count(engine, name) - before.get(name, 0)
                for name in engine.telemetry.counters
                if name.startswith("backend.")
            }
            reducers = moved["backend.dispatched_reducers"]
            assert moved["backend.partitions_by_ref"] > 0
            assert moved["backend.payload_bytes"] > 0
            assert moved["backend.reply_bytes"] > 0
            # One new leaf out, two root paths of a height <= 4 tree back.
            assert moved["backend.partitions_by_value"] <= reducers * (1 + 2 * 4 + 1)


#: K-Means at window 40 (a folding tree of height 6 or 7), two workers.
KMEANS_WINDOW = 40


class TestSteadyDispatch:
    def test_a_steady_dispatch_ships_the_slide_not_the_tree(self):
        """Through the public API, after two structural periods: each
        dispatch that neither folds nor unfolds a tree moves and
        references at most 2 * height + 4 partitions a dispatched
        reducer, both directions summed (229 when the whole state
        crossed), and re-seeds nothing."""
        spec = APP_REGISTRY["kmeans"]
        splits = spec.make_splits(KMEANS_WINDOW + 192, 17)
        config = SliderConfig(
            mode=WindowMode.VARIABLE, execution_backend="process", workers=2
        )
        slider = Slider(spec.make_job(), WindowMode.VARIABLE, config=config)
        try:
            slider.initial_run(splits[:KMEANS_WINDOW])
            for split in splits[KMEANS_WINDOW : KMEANS_WINDOW + 128]:
                slider.advance([split], 1)
            counters = slider.telemetry.counters
            steady = 0
            for split in splits[KMEANS_WINDOW + 128 :]:
                heights = [tree.height for tree in slider.trees]
                before = dict(counters)
                slider.advance([split], 1)
                grew = {
                    name: counters.get(name, 0) - before.get(name, 0)
                    for name in counters
                }
                assert grew.get("backend.dispatch_runs", 0) == 1
                if heights != [tree.height for tree in slider.trees]:
                    continue  # a fold or an unfold moves the tree
                steady += 1
                reducers = grew["backend.dispatched_reducers"]
                crossed = (
                    grew["backend.partitions_by_value"]
                    + grew["backend.partitions_by_ref"]
                )
                assert reducers == 2
                assert crossed <= reducers * (2 * max(heights) + 4), crossed
                assert grew.get("backend.reseeds", 0) == 0
            assert steady >= 48
            assert not [n for n in counters if n.endswith("_fallbacks")]
        finally:
            slider.close()


class TestLostSync:
    def test_inprocess_run_between_two_dispatched_ones(self):
        with _fleet() as fleet:
            fleet.steady(5)
            engine = fleet.engines["process"]
            local = count(engine, "backend.inprocess_runs")
            reseeds = count(engine, "backend.reseeds")
            fleet.interlude()
            fleet.advance()
            assert count(engine, "backend.inprocess_runs") == local + 1
            fleet.steady(20)
            fleet.check()
            assert not engine.backend.broken
            # The run in process moved the mirror: one re-seed, coded
            # against the tree the worker still held.
            assert count(engine, "backend.reseeds") == reseeds + 1

    def test_checkpoint_restore_then_dispatch(self):
        with _fleet() as fleet:
            fleet.steady(5)
            fleet.kill("process")
            fleet.kill("reference")
            fleet.steady(20)
            fleet.check()
            assert not fleet.engines["process"].backend.broken

    def test_unresolvable_reference_falls_back_in_process(self):
        """A worker that lost its tree cannot resolve the dispatch."""
        with _fleet() as fleet:
            fleet.steady(5)
            assert fleet.kill_worker(hard=False)
            engine = fleet.engines["process"]
            assert count(engine, "backend.worker_fallbacks") == 1
            assert engine.backend.broken and not engine.backend._synced
            failures = [
                instant
                for instant in engine.telemetry.instants
                if instant["name"] == "backend.worker_failed"
            ]
            assert "KeyError" in failures[-1]["args"]["error"]
            fleet.steady(20)
            fleet.check()


class TestWorkerProtocol:
    def test_worker_reports_an_unknown_place_as_an_error(self):
        pool = parallel.WorkerPool(1)
        try:
            steady = {"reducer": 0, "leaves": [], "removed": 0, "label": "r"}
            pool.submit(0, pickle.dumps(steady))
            with pytest.raises(RuntimeError, match="failed: KeyError"):
                pool.receive(0)
            coded = (({"_root": HeldPartition}, [("_root",)]))
            seed = dict(steady, seed=(CoalescingTree, coded))
            pool.submit(0, pickle.dumps(seed))
            with pytest.raises(RuntimeError, match="failed: KeyError"):
                pool.receive(0)
            # The worker is still serving, and holds nothing.
            pool.submit(0, parallel._RESIDENT)
            assert pool.receive(0)[0] == {}
        finally:
            pool.close()

    def test_a_seeded_worker_keeps_the_tree_and_a_raising_run_drops_it(self):
        tree = _tree("folding", 3)
        pool = parallel.WorkerPool(1)
        try:
            coded, _, _ = encode_refs(tree.state(), places_of({}))
            seed = {
                "reducer": 3, "leaves": [_leaf(50)], "removed": 1, "label": "r",
                "seed": (FoldingTree, coded),
            }
            pool.submit(0, pickle.dumps(seed))
            pool.receive(0)
            tree.advance([_leaf(50)], 1)
            pool.submit(0, parallel._RESIDENT)
            assert by_place(pool.receive(0)[0]) == {3: by_place(tree_fields(tree))}
            lost = {"reducer": 3, "leaves": [], "removed": -1, "label": "r"}
            pool.submit(0, pickle.dumps(lost))
            with pytest.raises(RuntimeError, match="failed: ValueError"):
                pool.receive(0)
            pool.submit(0, parallel._RESIDENT)
            assert pool.receive(0)[0] == {}
        finally:
            pool.close()


class TestBounded:
    def test_the_resident_tree_stays_the_mirror_over_a_long_run(self):
        with _fleet() as fleet:
            fleet.steady(150)
            fleet.check()
            # Two reducers, two workers: the parent keeps reducer 0, and
            # the one worker forked holds reducer 1's tree.
            backend = fleet.engines["process"].backend
            assert sorted(backend._synced) == [1] and len(backend._pool) == 1
