"""Partitions cross the process seam by reference.

``encode_refs`` / ``decode_refs`` over every tree variant's state, the
identity rule, the two tables staying equal and bounded over a long run,
and each way the two sides can lose step with each other: an in-process
run between two dispatched ones, a restore, a worker handed a reference
it cannot resolve.  (A worker that dies is in ``test_backends``.)
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.shared import audit_value
from repro.core import parallel
from repro.core.coalescing import CoalescingTree
from repro.core.folding import FoldingTree
from repro.core.parallel import HeldPartition, decode_refs, encode_refs
from repro.core.partition import Partition
from repro.core.randomized import RandomizedFoldingTree
from repro.core.rotating import RotatingTree
from repro.core.strawman import StrawmanTree
from repro.mapreduce.combiners import SumCombiner
from tests.oracle.fleet import (
    Fleet,
    case_of,
    count,
    count_job,
    split_of,
    tree_partitions,
)


def _leaf(tag: int) -> Partition:
    return Partition({"sum": tag, "tag": tag % 3, ("u", tag): 1})


def _state(tree) -> dict:
    """What a payload carries of a tree (the combiner is left out: it
    has no value equality)."""
    return {
        key: value
        for key, value in vars(tree).items()
        if key not in parallel._LOCAL_ATTRS and key != "combiner"
    }


def _assert_same(sent, got, path="state"):
    """Same shape, same scalars, partitions equal by uid and entries."""
    assert type(got) is type(sent), path
    if isinstance(sent, Partition):
        assert got.uid == sent.uid and got.entries == sent.entries, path
    elif isinstance(sent, dict):
        assert list(got) == list(sent), path
        for key in sent:
            _assert_same(sent[key], got[key], f"{path}[{key!r}]")
    elif isinstance(sent, (list, tuple)):
        assert len(got) == len(sent), path
        for index, (a, b) in enumerate(zip(sent, got)):
            _assert_same(a, b, f"{path}[{index}]")
    else:
        assert got == sent, path


def _folding(advances):
    tree = FoldingTree(SumCombiner())
    tree.initial_run([_leaf(i) for i in range(5)])
    for i in range(advances):
        tree.advance([_leaf(10 + i)], 1)
    return tree


def _randomized(advances):
    tree = RandomizedFoldingTree(SumCombiner(), seed=3)
    tree.initial_run([_leaf(i) for i in range(5)])
    for i in range(advances):
        tree.advance([_leaf(10 + i)], 1)
    return tree


def _strawman(advances):
    tree = StrawmanTree(SumCombiner())
    tree.initial_run([_leaf(i) for i in range(5)])
    for i in range(advances):
        tree.advance([_leaf(10 + i)], 1)
    return tree


def _rotating(advances):
    # Split processing leaves ``_intermediate`` set after a background
    # phase and ``_pending`` (an ``(int, Partition)`` tuple) after the
    # foreground run that used it.
    tree = RotatingTree(SumCombiner(), bucket_size=2, split_mode=True)
    tree.initial_run([_leaf(i) for i in range(8)])
    for i in range(advances):
        tree.background_preprocess()
        tree.advance([_leaf(10 + 2 * i), _leaf(11 + 2 * i)], 2)
    return tree


def _coalescing(advances):
    tree = CoalescingTree(SumCombiner(), split_mode=True)
    tree.initial_run([_leaf(i) for i in range(3)])
    for i in range(advances):
        tree.advance([_leaf(10 + i)], 0)  # leaves ``_pending_delta`` set
    return tree


BUILDERS = {
    "folding": _folding,
    "randomized": _randomized,
    "strawman": _strawman,
    "rotating": _rotating,
    "coalescing": _coalescing,
}


class TestRoundTrip:
    @pytest.mark.parametrize("variant", sorted(BUILDERS))
    @settings(max_examples=25, deadline=None)
    @given(advances=st.integers(0, 9), data=st.data())
    def test_state_survives_the_seam(self, variant, advances, data):
        state = _state(BUILDERS[variant](advances))
        mine = {}
        for partition in tree_partitions(state):
            mine.setdefault(partition.uid, partition)
        chosen = data.draw(st.sets(st.sampled_from(sorted(mine))), label="held")
        held = {uid: mine[uid] for uid in chosen}
        # The receiver's table: its own objects, equal to the sender's.
        theirs = {
            uid: Partition(p.entries, uid=p.uid) for uid, p in held.items()
        }

        sent = {}
        coded, refs, values = encode_refs(state, held, sent)
        assert sent == mine
        assert refs + values == len(tree_partitions(state))
        # Nothing the receiver holds is in the message in full.
        assert not any(held.get(p.uid) is p for p in tree_partitions(coded))
        blob = pickle.dumps(coded, protocol=pickle.HIGHEST_PROTOCOL)

        received = {}
        decoded, refs_in, values_in = decode_refs(
            pickle.loads(blob), theirs, received
        )
        assert (refs_in, values_in) == (refs, values)
        _assert_same(state, decoded)
        assert set(received) == set(mine)
        for partition in tree_partitions(decoded):
            if partition.uid in theirs:
                assert partition is theirs[partition.uid]
            else:
                assert partition is not mine[partition.uid]

    def test_variants_cover_every_shape_of_tree_state(self):
        """The fixtures really hold the nested shapes the walker is for."""
        rotating = _state(_rotating(3))
        assert isinstance(rotating["_bucket_leaves"][0], list)
        assert isinstance(rotating["_pending"], tuple)
        assert isinstance(rotating["_pending"][1], Partition)
        assert isinstance(rotating["_root"], Partition)
        assert isinstance(rotating["_intermediate_slot"], (int, type(None)))
        rotating_bg = _rotating(3)
        rotating_bg.background_preprocess()
        assert isinstance(_state(rotating_bg)["_intermediate"], Partition)
        triple = next(iter(_state(_strawman(3))["_cache"].values()))
        assert isinstance(triple[0], int) and isinstance(triple[2], Partition)
        assert isinstance(_state(_coalescing(2))["_pending_delta"], Partition)
        assert None in _state(_folding(3))["_slots"]

    def test_unrecognised_values_cross_by_value(self):
        class Opaque:
            def __init__(self, partition):
                self.partition = partition

        leaf = _leaf(1)
        opaque = Opaque(leaf)
        (marked, uids), refs, values = encode_refs(
            {"x": opaque, "n": 7, "s": {leaf.uid}}, {leaf.uid: leaf}, {}
        )
        assert marked["x"] is opaque and marked["n"] == 7
        assert marked["s"] == {leaf.uid}
        assert (uids, refs, values) == ([], 0, 0)

    def test_the_mark_passes_the_serializability_audit(self):
        assert audit_value(HeldPartition, "dispatch:mark") == []
        assert audit_value(([HeldPartition, 3, None], [0xABC]), "dispatch:coded") == []
        assert pickle.loads(pickle.dumps(HeldPartition)) is HeldPartition


class TestIdentityRule:
    def test_a_copy_with_the_same_uid_travels_in_full(self):
        tree = _folding(6)
        held = {p.uid: p for p in tree_partitions(_state(tree))}
        key, genuine = next(
            (k, v) for k, v in tree._cache.items() if v and held[v.uid] is v
        )
        corrupt = Partition({**genuine.entries, "rot": 1}, uid=genuine.uid)
        tree._cache[key] = corrupt
        (marked, uids), _, _ = encode_refs(_state(tree), held, {})
        assert marked["_cache"][key] is corrupt
        others = [
            value
            for k, value in marked["_cache"].items()
            if k != key and tree._cache[k] is not genuine
        ]
        assert others
        assert all(value is HeldPartition for value in others)
        assert genuine.uid not in uids or any(
            p is genuine for p in tree_partitions(_state(tree))
        )

    def test_a_missing_reference_raises(self):
        with pytest.raises(KeyError):
            decode_refs(([HeldPartition], [42]), {}, {})


# -- engines ------------------------------------------------------------------
#
# Scripted walks of the oracle's fleet (``tests/oracle``), which after
# every dispatched run of every walk holds both sides' tables equal to
# the tree's partitions (``Fleet._held_is_the_tree``).

TWINS = ("reference", "process")
#: Eight keys no other split has all of: every leaf's content, and with
#: it every uid in a tree, is distinct, and neighbours share a key, so
#: every node is a real merge.
DISTINCT = (count_job, lambda i: split_of(i, spread=10**6, n=8))


def _fleet(first=6):
    return Fleet(case_of("folding"), job=DISTINCT, arms=TWINS, first=first)


class TestHeldOnce:
    def test_window_leaves_are_the_map_memo_objects(self):
        with _fleet() as fleet:
            fleet.steady(50)
            engine = fleet.engines["process"]
            for reducer, tree in enumerate(engine.trees):
                leaves = zip(tree.window_leaves(), engine.window, strict=True)
                for leaf, split in leaves:
                    assert leaf is engine.map_memo[split.uid][reducer]
                reachable = tree_partitions(tree)
                assert len({id(p) for p in reachable}) == len(
                    {p.uid for p in reachable}
                )

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


class TestLostSync:
    def test_inprocess_run_between_two_dispatched_ones(self):
        with _fleet() as fleet:
            fleet.steady(5)
            engine = fleet.engines["process"]
            local = count(engine, "backend.inprocess_runs")
            fleet.interlude()
            fleet.advance()
            assert count(engine, "backend.inprocess_runs") == local + 1
            fleet.steady(20)
            fleet.check()
            assert not engine.backend.broken

    def test_checkpoint_restore_then_dispatch(self):
        with _fleet() as fleet:
            fleet.steady(5)
            fleet.kill("process")
            fleet.kill("reference")
            fleet.steady(20)
            fleet.check()
            assert not fleet.engines["process"].backend.broken

    def test_unresolvable_reference_falls_back_in_process(self):
        with _fleet() as fleet:
            fleet.steady(5)
            assert fleet.kill_worker(hard=False)
            engine = fleet.engines["process"]
            assert count(engine, "backend.worker_fallbacks") == 1
            assert engine.backend.broken and not engine.backend._held
            failures = [
                instant
                for instant in engine.telemetry.instants
                if instant["name"] == "backend.worker_failed"
            ]
            assert "KeyError" in failures[-1]["args"]["error"]
            fleet.steady(20)
            fleet.check()


class TestWorkerProtocol:
    def test_worker_reports_an_unknown_uid_as_an_error(self):
        pool = parallel.WorkerPool(1)
        try:
            payload = {"reducer": 0, "coded": (({"_root": HeldPartition}, []), [7])}
            pool.submit(0, pickle.dumps(payload))
            with pytest.raises(RuntimeError, match="failed: KeyError"):
                pool.receive(0)
            # The worker is still serving, and holds nothing for reducer 0.
            pool.submit(0, parallel._HELD_SIZES)
            assert pool.receive(0)[0] == {}
        finally:
            pool.close()


class TestBounded:
    def test_tables_stay_the_size_of_the_tree_on_both_sides(self):
        with _fleet() as fleet:
            fleet.steady(150)
            fleet.check()
            assert sorted(fleet.engines["process"].backend._held) == [0, 1]
