"""The restore sweep: a partition whose entries diverged from its uid is
refused at restore, named by the slot where the sweep first met it.

The sweep proves a uid that was made and makes one that was not, from
what the partition holds: so each corruption here is made to a
partition whose uid was read first (or to a copy that carries one)."""

import re

import pytest

from repro.apps.registry import APP_REGISTRY
from repro.cluster.machine import Cluster, ClusterConfig
from repro.common.errors import CorruptionError
from repro.recovery.repair import verify_restored
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from repro.core.identity import FLAT_ITEMS
from repro.core.partition import Partition
from tests.oracle.fleet import VARIANTS, count_job, split_of, tree_partitions
from tests.conftest import count_digests


def _folding_engine() -> Slider:
    """A folding tree on a cluster, three runs in."""
    slider = Slider(
        count_job(),
        WindowMode.VARIABLE,
        config=SliderConfig(tree="folding"),
        cluster=Cluster(ClusterConfig(num_machines=8, straggler_fraction=0.0)),
    )
    slider.initial_run([split_of(i) for i in range(6)])
    slider.advance([split_of(10)], 2)
    slider.advance([split_of(11)], 1)
    return slider


def _corrupt_copy(value: Partition, salt: int) -> Partition:
    """A copy of ``value`` under its uid whose entries hold one more key:
    what a slot flipped in memory before a checkpoint looks like."""
    entries = dict(value.entries)
    entries["\x00bitrot"] = salt
    return Partition(entries, uid=value.uid)


def test_verify_restored_raises_on_in_memory_corruption():
    engine = _folding_engine()
    assert verify_restored(engine) > 0
    tree = engine.trees[0]
    position = next(iter(sorted(tree._cache)))
    tree._cache[position] = _corrupt_copy(tree._cache[position], salt=7)
    with pytest.raises(CorruptionError, match="fingerprint"):
        verify_restored(engine)


def _held_by_reducer(engine) -> list[list[Partition]]:
    """The distinct partitions the sweep checks, by the reducer whose walk
    meets each first: its map-memo row, then its tree."""
    firsts: dict[int, tuple[int, Partition]] = {}
    for index, tree in enumerate(engine.trees):
        met = [row[index] for row in engine.map_memo.values()]
        met += tree_partitions(tree) + list(tree.memo.entries.values())
        for partition in met:
            firsts.setdefault(id(partition), (index, partition))
    walks: list[list[Partition]] = [[] for _ in engine.trees]
    for index, partition in firsts.values():
        walks[index].append(partition)
    return walks


def _entry_digests(walks: list[list[Partition]]) -> int:
    """The entry digests a sweep over ``walks`` makes, one memo a reducer:
    each distinct (key, value) with an exact-int value and an exact-str
    key or a tuple key of exact str / int items, each distinct pair of
    objects under any other tuple key, and every other entry each time it
    is held."""
    expected = 0
    for walk in walks:
        by_value, by_identity = set(), set()
        for p in walk:
            for key, value in p.items():
                if type(key) is str and type(value) is int:
                    by_value.add((key, value))
                elif (
                    type(key) is tuple
                    and type(value) is int
                    and FLAT_ITEMS.issuperset(map(type, key))
                ):
                    by_value.add((key, value))
                elif type(key) is tuple:
                    by_identity.add((id(key), id(value)))
                else:
                    expected += 1
        expected += len(by_value) + len(by_identity)
    return expected


@pytest.mark.parametrize("variant", [variant for variant, _ in VARIANTS])
def test_verify_restored_hashes_each_distinct_partition_once(
    variant, monkeypatch, length_terms
):
    """A map-memo leaf is also a tree's leaf and a pass-through node is the
    child it is: the sweep met 12 032 slots over 7 997 objects on
    ``hct_var_w1000`` and fingerprinted every slot.  One length term a
    distinct partition, a digest for each length the emptied cache misses;
    and the entries are str words with int counts, memoized by value, so
    one entry digest a distinct (word, count) a reducer holds."""
    mode = dict(VARIANTS)[variant]
    engine = Slider(count_job(), mode, config=SliderConfig(mode=mode, tree=variant))
    engine.initial_run([split_of(i) for i in range(9)])
    engine.advance([split_of(9)], 0 if mode is WindowMode.APPEND else 1)
    walks = _held_by_reducer(engine)
    held = [p for walk in walks for p in walk]
    length_terms.clear()
    digests, _ = count_digests(monkeypatch)
    assert verify_restored(engine) == len(held)
    assert digests.count("pfp") == len(set(map(len, held))) == len(length_terms)
    assert digests.count("pent") == _entry_digests(walks)
    assert digests.count("pent") < sum(map(len, held))
    # A failure is reported where the object was first met: as map output.
    split = engine.window.splits[-1]
    leaf = next(p for p in engine.map_memo[split.uid] if p)
    leaf.entries["\x00rot"] = 1
    with pytest.raises(CorruptionError, match=rf"at map_memo\[{split.uid:#x}\]"):
        verify_restored(engine)


def _restored(app: str, tmp_path) -> Slider:
    """A registry app's engine, checkpointed and restored: matrix (tuple
    keys) on a fixed window's rotating tree in split mode, as the
    benchmark's matrix workload runs; hct (str keys) on a folding tree."""
    spec = APP_REGISTRY[app]
    mode = WindowMode.FIXED if app == "matrix" else WindowMode.VARIABLE
    extra = dict(bucket_size=2, split_mode=True) if app == "matrix" else {}
    splits = spec.make_splits(20, 3, 0)
    engine = Slider(spec.make_job(), mode, config=SliderConfig(mode=mode, **extra))
    engine.initial_run(splits[:16])
    for start in (16, 18):
        engine.background_preprocess()
        engine.advance(splits[start : start + 2], 2)
    engine.checkpoint(tmp_path / app)
    return Slider.restore(tmp_path / app, spec.make_job())


@pytest.mark.parametrize("app", ["matrix", "hct"])
def test_verify_restored_hashes_each_distinct_entry_once(
    app, tmp_path, monkeypatch, length_terms
):
    """A pass-through holds its child's very key and value objects, so a
    restored matrix engine's 128 partitions hold each tuple-keyed (key,
    value) pair of objects about three times, and equal pairs as other
    objects besides: its keys are flat (int, int) tuples with int values,
    remembered by value after an identity miss, so the sweep digests each
    distinct (key, value) once a reducer (3 505 digests here, 4 747 by
    identity alone), and one length term a partition (a digest for each
    length the emptied cache misses).  About 0.18 of the entries on the
    benchmark's matrix shape.  On hct the keys are strs and the counts
    ints, memoized by value: one digest a distinct (key, value) a reducer,
    0.063 of the entries on the ``hct_var_w1000`` shape (3 056 of 48 320),
    although unpickling made 42 713 distinct pairs of objects there."""
    engine = _restored(app, tmp_path)
    walks = _held_by_reducer(engine)
    entries = sum(len(p) for walk in walks for p in walk)
    lengths = {len(p) for walk in walks for p in walk}
    length_terms.clear()
    digests, _ = count_digests(monkeypatch)
    assert verify_restored(engine) == sum(map(len, walks))
    assert digests.count("pfp") == len(lengths) == len(length_terms)
    assert digests.count("pent") == _entry_digests(walks)
    assert digests.count("pent") <= 0.5 * entries


def _full_slots(engine) -> tuple[int, list]:
    """The first tree with two cache slots of two or more entries, and
    those slots' positions in the order the sweep walks them."""
    for index, tree in enumerate(engine.trees):
        slots = [p for p in sorted(tree._cache) if len(tree._cache[p]) >= 2]
        if len(slots) >= 2:
            return index, slots
    raise AssertionError("no tree holds two full cache slots")


def test_the_identity_memo_cannot_hide_a_corrupt_copy(tmp_path):
    """A corrupt copy of a clean slot holds the very key and value objects
    the sweep has already hashed: every one of them is a memo hit, and the
    slot still fails, named.  So does a copy that only drops an entry --
    nothing in it is hashed afresh but the length term."""
    engine = _restored("matrix", tmp_path)
    index, (first, victim, *_) = _full_slots(engine)
    cache = engine.trees[index]._cache
    clean = cache[first]
    where = rf"at tree\[{index}\]\.cache\[{re.escape(str(victim))}\]"
    for rotten in (
        _corrupt_copy(clean, salt=7),
        Partition(dict(list(clean.items())[1:]), uid=clean.uid),
    ):
        cache[victim] = rotten
        with pytest.raises(CorruptionError, match=where):
            verify_restored(engine)
    cache[victim] = Partition(clean.entries, uid=clean.uid)
    assert verify_restored(engine)  # the same objects under their uid


def test_the_value_memo_cannot_hide_a_corrupt_copy(tmp_path):
    """On hct every entry is a str word with an int count, memoized by
    value.  A clean slot's counts permuted between its keys, with an
    honest slot of exactly that content walked first, is all memo hits
    and still fails, named; so do a copy that drops an entry and one that
    moves a count by one either way.  The same content rebuilt from new
    key objects passes (a count below 257 is CPython's cached int, so
    ``tests/common/test_entry_kernel.py`` remakes a large one): the
    verdict is the content's."""
    engine = _restored("hct", tmp_path)
    index, (first, victim, *_) = _full_slots(engine)
    cache = engine.trees[index]._cache
    clean = cache[first]
    keys, counts = list(clean.entries), list(clean.entries.values())
    shift = next(n for n in range(1, len(counts)) if counts[n:] + counts[:n] != counts)
    permuted = dict(zip(keys, counts[shift:] + counts[:shift]))
    assert permuted != clean.entries
    key, count = next(iter(clean.items()))
    where = rf"at tree\[{index}\]\.cache\[{re.escape(str(victim))}\]"
    for source, rotten in (
        (Partition(permuted), permuted),
        (clean, dict(list(clean.items())[1:])),
        (clean, {**clean.entries, key: count + 1}),
        (clean, {**clean.entries, key: count - 1}),
    ):
        cache[first] = source
        cache[victim] = Partition(rotten, uid=clean.uid)
        with pytest.raises(CorruptionError, match=where):
            verify_restored(engine)
    fresh = {k.encode().decode(): int(str(v)) for k, v in clean.items()}
    assert all(a is not b for a, b in zip(fresh, clean.entries))
    cache[victim] = Partition(fresh, uid=clean.uid)
    assert verify_restored(engine)


def test_a_value_object_swapped_for_another_is_hashed_afresh(tmp_path):
    """The memo is keyed by the pair of objects, so an entry that pairs a
    key with another value object misses it and is hashed: a different
    value fails.  The verdict is the content's -- a key remade as an equal
    new object misses the memo too, and passes."""
    engine = _restored("matrix", tmp_path)
    index, (position, *_) = _full_slots(engine)
    cache = engine.trees[index]._cache
    clean = cache[position]
    key, value = next(iter(clean.items()))
    other = next(v for v in clean.entries.values() if v != value)
    cache[position] = Partition({**clean.entries, key: other}, uid=clean.uid)
    with pytest.raises(CorruptionError, match=rf"at tree\[{index}\]\.cache"):
        verify_restored(engine)
    remade = {tuple(list(k)): v for k, v in clean.items()}
    assert all(a is not b for a, b in zip(remade, clean.entries))
    cache[position] = Partition(remade, uid=clean.uid)
    assert verify_restored(engine)


def test_an_empty_partition_passes_only_under_an_empty_uid():
    """The shared empty partition's uid is symbolic; an empty partition a
    combine produced carries the fingerprint of no entries.  Under any
    other uid -- a slot whose entries were lost -- it is corrupt."""
    engine = _folding_engine()
    tree = engine.trees[0]
    position = max(tree._cache)
    lost = tree._cache[position]
    for empty in (Partition.empty(), Partition({})):
        tree._cache[position] = empty
        assert verify_restored(engine)
    tree._cache[position] = Partition({}, uid=lost.uid)
    with pytest.raises(CorruptionError, match=rf"at tree\[0\]\.cache"):
        verify_restored(engine)


def test_a_flipped_memo_entry_checkpointed_live_is_refused_at_restore(tmp_path):
    """What the segment digest cannot see: a memo entry flipped in memory
    is written as it is held, its bytes verify on read, and only the
    sweep finds that the graph written was unsound."""
    engine = Slider(
        count_job(),
        WindowMode.VARIABLE,
        config=SliderConfig(tree="randomized"),
    )
    engine.initial_run([split_of(i) for i in range(6)])
    memo = engine.trees[0].memo
    uid = max(uid for uid, value in memo.entries.items() if value)
    memo.entries[uid] = _corrupt_copy(memo.entries[uid], salt=9)
    engine.checkpoint(tmp_path / "ckpt")
    with pytest.raises(CorruptionError, match=rf"at tree\[0\]\.memo\[{uid:#x}\]"):
        Slider.restore(tmp_path / "ckpt", count_job())


@pytest.mark.parametrize("field", ["_buckets", "_bucket_leaves"])
def test_a_rotating_trees_bucket_leaves_are_swept_at_restore(field, tmp_path):
    """A bucket's retained leaf chunk is what the bucket is combined from,
    so a corrupt copy there is refused at restore as one in the bucket is: the
    sweep walks every field of the tree's state, lists of lists too."""
    mode = WindowMode.FIXED
    engine = Slider(count_job(), mode, config=SliderConfig(mode=mode, bucket_size=2))
    engine.initial_run([split_of(i) for i in range(8)])
    engine.advance([split_of(8), split_of(9)], 2)
    tree = engine.trees[0]
    # The first bucket itself, or the first leaf of the chunk it combines.
    holder = tree._buckets if field == "_buckets" else tree._bucket_leaves[0]
    assert holder[0]
    holder[0] = _corrupt_copy(holder[0], salt=7)
    engine.checkpoint(tmp_path / "ckpt")
    with pytest.raises(CorruptionError, match=rf"at tree\[0\]\.{field}\[0\]"):
        Slider.restore(tmp_path / "ckpt", count_job())


def test_each_reducer_is_walked_whole_before_the_next():
    """Reducer r's map-memo row is met before tree r, and all of reducer
    0 before anything of reducer 1: corruption in both is reported at
    reducer 0's tree, and without it at reducer 1's map output."""
    engine = _folding_engine()
    split = engine.window.splits[-1]
    assert engine.map_memo[split.uid][1].uid  # made before the corruption
    engine.map_memo[split.uid][1].entries["\x00rot"] = 1
    tree = engine.trees[0]
    position = max(tree._cache)
    clean = tree._cache[position]
    tree._cache[position] = _corrupt_copy(clean, salt=3)
    with pytest.raises(CorruptionError, match=r"at tree\[0\]\.cache"):
        verify_restored(engine)
    tree._cache[position] = clean
    with pytest.raises(CorruptionError, match=rf"at map_memo\[{split.uid:#x}\]\[1\]"):
        verify_restored(engine)


def _rotating_with_pending(tmp_path) -> Slider:
    """A restored fixed-window rotating tree in split mode, whose last
    advance took the fast root and deferred its path fix: ``_pending``
    holds (slot, bucket), and ``_bucket_leaves`` a chunk a bucket."""
    mode = WindowMode.FIXED
    config = SliderConfig(mode=mode, bucket_size=2, split_mode=True)
    engine = Slider(count_job(), mode, config=config)
    engine.initial_run([split_of(i) for i in range(8)])
    engine.background_preprocess()
    engine.advance([split_of(8), split_of(9)], 2)
    engine.checkpoint(tmp_path / "ckpt")
    return Slider.restore(tmp_path / "ckpt", count_job())


def test_a_corrupt_copy_first_met_in_a_nested_slot_is_named_by_it(tmp_path):
    """The sweep gathers a reducer's partitions in one list; a failure
    walks the reducer again to name the slot where the failing object was
    first met, nested ones too: a bucket held only in the deferred path
    fix is named as the whole field, a leaf deep in a retained chunk as
    the chunk's slot, and the clean state passes again."""
    engine = _rotating_with_pending(tmp_path)
    tree = engine.trees[0]
    assert tree._pending is not None
    slot, bucket = tree._pending
    tree._pending = (slot, _corrupt_copy(bucket, salt=7))
    with pytest.raises(CorruptionError, match=r"at tree\[0\]\._pending: "):
        verify_restored(engine)
    tree._pending = (slot, bucket)
    chunk = tree._bucket_leaves[1]
    clean = chunk[1]
    assert clean
    chunk[1] = _corrupt_copy(clean, salt=7)
    with pytest.raises(CorruptionError, match=r"at tree\[0\]\._bucket_leaves\[1\]: "):
        verify_restored(engine)
    chunk[1] = clean
    assert verify_restored(engine)
