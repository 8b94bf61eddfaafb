"""Injected corruption is detected and repaired; outputs never change."""

import re

import pytest

from repro.apps.registry import APP_REGISTRY
from repro.cluster.chaos import ChaosPlan, ChaosSchedule, CorruptionEvent
from repro.cluster.machine import Cluster, ClusterConfig
from repro.common.errors import CorruptionError
from repro.recovery.repair import (
    _corrupt_copy,
    corruption_candidates,
    verify_restored,
)
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from repro.core.partition import Partition
from tests.oracle.fleet import (
    VARIANTS,
    Fleet,
    case_of,
    count_job,
    split_of,
    tree_partitions,
)
from tests.conftest import count_digests


def _run_scenario(variant: str, chaos=None):
    slider = Slider(
        count_job(),
        WindowMode.VARIABLE,
        config=SliderConfig(tree=variant),
        cluster=Cluster(ClusterConfig(num_machines=8, straggler_fraction=0.0)),
        chaos=chaos,
    )
    results = [slider.initial_run([split_of(i) for i in range(6)])]
    results.append(slider.advance([split_of(10)], 2))
    results.append(slider.advance([split_of(11)], 1))
    return slider, results


def _outputs(results):
    return [dict(result.outputs) for result in results]


def _corruption_plan(count=3, seed=5) -> ChaosPlan:
    return ChaosPlan(
        schedules={
            1: ChaosSchedule(
                corruptions=[CorruptionEvent(count=count)], seed=seed
            ),
            2: ChaosSchedule(
                corruptions=[CorruptionEvent(count=count, salt=1)], seed=seed
            ),
        }
    )


@pytest.mark.parametrize("variant", ["folding", "randomized", "strawman"])
def test_corruption_never_reaches_outputs(variant):
    _, clean = _run_scenario(variant)
    corrupted_engine, corrupted = _run_scenario(variant, chaos=_corruption_plan())
    assert _outputs(corrupted) == _outputs(clean)
    corrupted_engine.verify_outputs()
    injected = corrupted_engine.telemetry.counters.get(
        "recovery.corruptions_injected", 0
    )
    assert injected > 0


def test_eager_repair_is_charged_as_work():
    clean_engine, _ = _run_scenario("folding")
    engine, results = _run_scenario("folding", chaos=_corruption_plan())
    recovery = results[1].report.recovery
    assert recovery["corruptions_injected"] > 0
    assert recovery["corruptions_repaired"] > 0
    assert recovery["corruption_repair_work"] > 0
    # Corruption costs work, not correctness: total charged work strictly
    # exceeds the clean run's.
    assert engine.telemetry.total() > clean_engine.telemetry.total()


def test_repair_telemetry_is_deterministic():
    a, results_a = _run_scenario("folding", chaos=_corruption_plan())
    b, results_b = _run_scenario("folding", chaos=_corruption_plan())
    assert [r.report.recovery for r in results_a] == [
        r.report.recovery for r in results_b
    ]
    assert a.telemetry.counters == b.telemetry.counters


def test_corruption_candidates_are_deterministic():
    engine, _ = _run_scenario("folding")
    assert corruption_candidates(engine) == corruption_candidates(engine)
    assert corruption_candidates(engine), "retained state should be flippable"


def test_randomized_memo_corruption_heals_lazily():
    """Tainted memo entries are verified on next read and dropped; the
    backing replica (untouched by the bit-flip) serves the good copy."""
    _, clean = _run_scenario("randomized")
    engine, results = _run_scenario("randomized", chaos=_corruption_plan(count=4))
    assert _outputs(results) == _outputs(clean)
    engine.verify_outputs()


def test_verify_restored_raises_on_in_memory_corruption():
    engine, _ = _run_scenario("folding")
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


@pytest.mark.parametrize("variant", [variant for variant, _ in VARIANTS])
def test_verify_restored_hashes_each_distinct_partition_once(variant, monkeypatch):
    """A map-memo leaf is also a tree's leaf and a pass-through node is the
    child it is: the sweep met 12 032 slots over 7 997 objects on
    ``hct_var_w1000`` and fingerprinted every slot.  One length digest a
    distinct partition; and the keys are strs, never memoized, so one
    entry digest an entry those partitions hold."""
    mode = dict(VARIANTS)[variant]
    engine = Slider(count_job(), mode, config=SliderConfig(mode=mode, tree=variant))
    engine.initial_run([split_of(i) for i in range(9)])
    engine.advance([split_of(9)], 0 if mode is WindowMode.APPEND else 1)
    held = [p for walk in _held_by_reducer(engine) for p in walk]
    digests, _ = count_digests(monkeypatch)
    assert verify_restored(engine) == len(held) == digests.count("pfp")
    assert digests.count("pent") == sum(map(len, held))
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
def test_verify_restored_hashes_each_distinct_entry_once(app, tmp_path, monkeypatch):
    """A pass-through holds its child's very key and value objects, so a
    restored matrix engine's 128 partitions hold each tuple-keyed (key,
    value) pair of objects about three times: the sweep digests each once
    a reducer, every other entry each time, and one length term a
    partition.  About 0.3 of the entries on the benchmark's matrix shape;
    str keys are never memoized, so on hct it digests every entry."""
    engine = _restored(app, tmp_path)
    walks = _held_by_reducer(engine)
    entries = sum(len(p) for walk in walks for p in walk)
    expected = 0
    for walk in walks:
        pairs = {
            (id(key), id(value))
            for p in walk
            for key, value in p.items()
            if type(key) is tuple
        }
        others = sum(type(key) is not tuple for p in walk for key in p.keys())
        expected += len(pairs) + others
    digests, _ = count_digests(monkeypatch)
    assert verify_restored(engine) == sum(map(len, walks)) == digests.count("pfp")
    assert digests.count("pent") == expected
    if app == "matrix":
        assert digests.count("pent") <= 0.5 * entries
    else:
        assert digests.count("pent") == entries


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
    engine, _ = _run_scenario("folding")
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
    """What the segment digest cannot see: a memo entry flipped under
    ``memo_verify="off"`` is written as it is held, its bytes verify on
    read, and only the sweep finds that the graph written was unsound."""
    engine = Slider(
        count_job(),
        WindowMode.VARIABLE,
        config=SliderConfig(tree="randomized", memo_verify="off"),
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
    """A bucket's retained leaf chunk is what its repair recombines, so a
    corrupt copy there is refused at restore as one in the bucket is: the
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
    engine, _ = _run_scenario("folding")
    split = engine.window.splits[-1]
    assert engine.map_memo[split.uid][1]
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


def test_kill_restore_sweep_is_bit_identical_under_corruption():
    """Every variant, killed and restored at every boundary while slots
    are being flipped and repaired, reproduces the uninterrupted run: a
    repaired node's uid is again the fingerprint of its entries, so the
    combines above it may derive theirs from it."""
    for variant, _ in VARIANTS:
        arms = ("reference", "restored")
        with Fleet(case_of(variant), job="scenario", arms=arms, first=6) as f:
            f.corrupt(seed=5, victims=3)
            f.check()
            f.advance(2, 2)
            f.corrupt(seed=6, victims=3)
            f.check()
            # A coalescing root is no legal fault surface: nothing to flip.
            counters = f.reference.telemetry.counters
            flipped = counters.get("recovery.corruptions_injected")
            assert flipped or variant == "coalescing"
