"""A partition's uid is made where it is read.

No folding, rotating or coalescing tree reads a uid, so their combines
and the map tasks under them make none: a steady folding advance on hct
and on matrix makes no ``"pent"`` digest, and every node it builds keeps
``_uid`` unset.  The randomized tree reads its leaves' uids for its coins,
so a steady advance of it makes the uids of its new leaves and no other.
The strawman reads its children's uids, and takes a rebuilt node's from
the pair of them where an earlier build made it.  A uid read is the
fingerprint an eager fold makes, and comparing or printing partitions
makes none.
"""

from __future__ import annotations

import pickle

import pytest

from repro.apps.registry import APP_REGISTRY
from repro.core import strawman
from repro.core.identity import entry_hash
from repro.core.partition import (
    Partition,
    _adopt,
    _fingerprint_entries,
    _length_term,
    combine_partitions,
    first_unsound,
    map_partitions,
)
from repro.mapreduce.combiners import SumCombiner
from repro.recovery.segments import PICKLE_PROTOCOL, read_manifest, read_segment
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.conftest import count_digests
from tests.oracle.fleet import (
    PERIOD,
    by_place,
    count,
    count_job,
    held_partitions,
    split_of,
)


def _engine(app: str, tree: str) -> tuple[Slider, list]:
    spec = APP_REGISTRY[app]
    mode = WindowMode.VARIABLE
    config = SliderConfig(
        mode=mode, tree=tree, execution_backend="inprocess", workers=1
    )
    return Slider(spec.make_job(), mode, config=config), spec.make_splits(56, 7, 0)


@pytest.mark.parametrize("app", ["hct", "matrix"])
def test_a_steady_folding_advance_makes_no_uid(monkeypatch, app):
    engine, splits = _engine(app, "folding")
    try:
        engine.initial_run(splits[:40])
        for split in splits[40:48]:
            engine.advance([split], 1)
        before = held_partitions(engine)
        digests, _ = count_digests(monkeypatch)
        for split in splits[48:]:
            engine.advance([split], 1)
        assert digests.count("pent") == 0
        built = [p for key, p in held_partitions(engine).items() if key not in before]
        assert len(built) > 8 * 4  # leaves and a path of nodes a slide
        assert all(p._uid is None for p in built)
        engine.verify_outputs()
    finally:
        engine.close()


def test_a_steady_randomized_advance_makes_its_new_leaves_uids_only():
    engine, splits = _engine("hct", "randomized")
    try:
        engine.initial_run(splits[:40])
        for split in splits[40:48]:
            engine.advance([split], 1)
        for split in splits[48:52]:
            before = held_partitions(engine)  # held alive: no id is reused meanwhile
            made = {key for key, p in before.items() if p._uid is not None}
            engine.advance([split], 1)
            leaves = {id(p) for p in engine.map_memo[split.uid] if p}
            now = {
                key for key, p in held_partitions(engine).items() if p._uid is not None
            }
            assert leaves and now - made == leaves
    finally:
        engine.close()


def _strawman_slides(monkeypatch, builds: int) -> tuple[Slider, int]:
    """A strawman hct engine after eight steady slides, each counted, with
    ``_made`` keeping ``builds`` builds' pairs; and its ``"pent"`` digests."""
    engine, splits = _engine("hct", "strawman")
    with monkeypatch.context() as patch:
        patch.setattr(strawman, "MADE_BUILDS", builds)
        engine.initial_run(splits[:40])
        for split in splits[40:48]:
            engine.advance([split], 1)
        digests, _ = count_digests(patch)
        for split in splits[48:]:
            engine.advance([split], 1)
    return engine, digests.count("pent")


def test_a_strawman_node_whose_children_recur_takes_their_pairs_uid(monkeypatch):
    remembering, made = _strawman_slides(monkeypatch, strawman.MADE_BUILDS)
    forgetting, folded = _strawman_slides(monkeypatch, 0)
    try:
        assert 0 < made <= folded / 4
        tree, plain = remembering.trees[0], forgetting.trees[0]
        assert tree._made and not plain._made and "_made" not in tree.state()
        states = tree.state(), plain.state()
        for state in states:
            del state["combiner"]  # one per engine, equal in all but id
        assert by_place(states[0]) == by_place(states[1])
        for partition in held_partitions(remembering).values():
            if partition._uid is not None and partition:
                assert partition._uid == _fingerprint_entries(partition.entries)
        assert remembering.telemetry.by_phase == forgetting.telemetry.by_phase
    finally:
        remembering.close()
        forgetting.close()


ENTRIES = [
    {"a": 1, "b": 2},
    {("row", "x"): 3, ("row", "y"): 4},  # the flat fold's shape
    {"k": (1.5, 2.5), 3: "v"},
]


@pytest.mark.parametrize("entries", ENTRIES, ids=["str", "flat", "other"])
def test_a_read_uid_is_the_eager_fingerprint_and_is_kept(monkeypatch, entries):
    partition = _adopt(dict(entries))
    assert partition._uid is None
    expected = _length_term(len(entries))
    for key, value in entries.items():
        expected ^= entry_hash(key, value, salt="pent")
    assert partition.uid == expected == _fingerprint_entries(entries)
    digests, _ = count_digests(monkeypatch)
    assert partition.uid == expected and digests == []


def test_a_combine_makes_no_uid_and_its_uid_read_is_the_fingerprint(monkeypatch):
    left = Partition({f"k{i}": i for i in range(40)})
    right = Partition({f"k{i}": i for i in range(20, 60)})
    digests, _ = count_digests(monkeypatch)
    combined = combine_partitions([left, right], SumCombiner())
    assert digests == [] and combined._uid is None
    assert combined.uid == _fingerprint_entries(combined.entries)


def test_comparing_and_printing_unmade_partitions_makes_no_digest(monkeypatch):
    first, second = _adopt({"a": 1, "b": 2}), _adopt({"b": 2, "a": 1})
    other = _adopt({"a": 1, "b": 3})
    digests, _ = count_digests(monkeypatch)
    assert first == second and first != other
    assert [first] == [second] and {"x": first} != {"x": other}
    assert "unmade" in repr(first)
    assert digests == []
    assert first._uid is None and second._uid is None and other._uid is None


def test_two_made_uids_that_differ_are_unequal_whatever_the_entries():
    genuine = Partition({"a": 1})
    stale = Partition({"a": 1}, uid=genuine.uid ^ 1)
    assert genuine != stale
    assert _adopt({"a": 1}) == stale  # one uid unmade: entries decide


def test_an_unmade_uid_crosses_the_seam_unmade_and_the_sweep_makes_it(
    monkeypatch,
):
    partitions = [_adopt(dict(entries)) for entries in ENTRIES]
    moved = pickle.loads(pickle.dumps(partitions, protocol=PICKLE_PROTOCOL))
    assert all(p._uid is None for p in moved)
    assert first_unsound(moved) is None
    assert [p._uid for p in moved] == [
        _fingerprint_entries(entries) for entries in ENTRIES
    ]


def test_unmade_uids_cross_the_seam_and_a_checkpoint_and_the_sweep_makes_them(
    tmp_path, monkeypatch
):
    """A folding tree on the process backend reads no uid on either side
    of the seam: once its advances dispatch, the parent has made no
    digest and holds no made uid but the shared empty partition's.  A
    checkpoint writes each unmade uid as ``None``; the restore sweep makes
    every one, the integer an eager fold of the entries makes."""
    config = SliderConfig(tree="folding", execution_backend="process", workers=2)
    engine = Slider(count_job(), WindowMode.VARIABLE, config=config)
    try:
        engine.initial_run([split_of(i) for i in range(8)])
        digests, _ = count_digests(monkeypatch)
        for i in range(8, 8 + 3 * PERIOD):
            engine.advance([split_of(i)], 1)
            if count(engine, "backend.dispatched_reducers") >= 4:
                break
        assert count(engine, "backend.dispatched_reducers") >= 4
        assert count(engine, "backend.worker_fallbacks") == 0
        assert digests == []
        held = held_partitions(engine).values()
        assert all(p._uid is None or p is Partition.empty() for p in held)
        engine.checkpoint(tmp_path / "ckpt")
    finally:
        engine.close()
    manifest = read_manifest(tmp_path / "ckpt")
    written: list[Partition] = []
    map_partitions(read_segment(tmp_path / "ckpt", manifest, "state"), written.append)
    symbolic = Partition.empty()._uid
    assert any(written)
    assert all(p._uid is None or (not p and p._uid == symbolic) for p in written)
    restored = Slider.restore(tmp_path / "ckpt", count_job())
    try:
        held = list(held_partitions(restored).values())
        assert held
        for partition in held:
            made = _fingerprint_entries(partition.entries)
            assert partition._uid == made or (
                not partition and partition._uid == symbolic
            )
    finally:
        restored.close()
