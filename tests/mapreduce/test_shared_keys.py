"""A map task shares its exact-str keys through ``sys.intern``: every
leaf holds one object per distinct str key, a checkpoint writes it once
and a restore rebuilds it once.  Counted in objects, never timed."""

import gc
import sys

import pytest

from repro.common.hashing import stable_hash
from repro.core.identity import entry_hash
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.shuffle import HashPartitioner, _INTERN_KEYS, run_map_task
from repro.mapreduce.types import Split
from repro.recovery.segments import read_manifest, read_segment
from repro.slider.system import Slider
from repro.telemetry import ENGINE_KEEP_LAST
from tests.oracle.fleet import count_job, split_of, tree_partitions

shares_keys = pytest.mark.skipif(
    not _INTERN_KEYS,
    reason="sys.intern makes immortal strs on this interpreter, so a map "
    "task keeps its keys as emitted",
)


class Word(str):
    """A str subclass: ``sys.intern`` refuses it."""


def _word(*parts: str) -> str:
    """A str made at run time: an object of its own, not the literal's."""
    return "".join(parts)


def test_interned_strs_are_mortal_on_the_judged_interpreter():
    """3.11, the interpreter the suite's line gate judges, frees an
    interned str nothing holds, so map tasks share their keys there."""
    if sys.version_info[:2] == (3, 11):
        assert _INTERN_KEYS


@shares_keys
def test_leaves_of_different_splits_hold_one_object_for_an_equal_str_key():
    job = count_job(num_reducers=1)
    partitioner = HashPartitioner(1)
    records = split_of(0).records, split_of(1).records
    assert not set(map(id, records[0])) & set(map(id, records[1]))
    (first,) = run_map_task(job, records[0], partitioner)
    (second,) = run_map_task(job, records[1], partitioner)
    shared = first.keys() & second.keys()
    assert shared
    for key in shared:
        (a,) = (k for k in first.entries if k == key)
        (b,) = (k for k in second.entries if k == key)
        assert a is b


def test_a_str_subclass_key_and_a_bool_key_are_kept_as_emitted():
    """Neither is interned, and their uids are the fingerprint of what
    was emitted, as ``stable_hash`` defines it."""
    word, flag = Word(_word("wo", "rd")), True
    job = MapReduceJob(
        name="kept",
        map_fn=lambda record: [(word, 1), (flag, 2)],
        combiner=SumCombiner(),
        num_reducers=1,
    )
    (leaf,) = run_map_task(job, [0], HashPartitioner(1))
    keys = list(leaf.entries)
    assert keys[0] is word and type(keys[0]) is Word
    assert keys[1] is flag
    assert leaf.uid == (
        stable_hash(2, salt="pfp")
        ^ entry_hash(word, 1, salt="pent")
        ^ entry_hash(flag, 2, salt="pent")
    )


@shares_keys
def test_a_key_that_left_every_partition_is_freed():
    """Interned strs are mortal: once the one split that held a key has
    left the window and the engine's record of its last runs has moved
    on, nothing holds it, and interning an equal fresh str returns that
    fresh object, not a survivor."""
    gone = (_word("gone", "-", "key"),)
    kept = [split_of(i) for i in range(4)]
    engine = Slider(count_job())
    engine.initial_run([Split.from_records(gone, label="gone")] + kept)
    held = _word("gone", "-", "key")
    assert sys.intern(held) is not held  # an engine's leaf holds the key
    del held
    engine.advance([split_of(4)], 1)
    assert "gone-key" not in engine.current_outputs()
    # The last run's removed keys and the logs of the last
    # ``ENGINE_KEEP_LAST`` runs name it until later runs replace them.
    for i in range(5, 6 + ENGINE_KEEP_LAST):
        engine.advance([split_of(i)], 1)
    del gone
    gc.collect()
    fresh = _word("gone", "-", "key")
    assert sys.intern(fresh) is fresh
    engine.close()


@shares_keys
def test_the_state_segment_holds_one_str_object_per_distinct_key(tmp_path):
    engine = Slider(count_job())
    engine.initial_run([split_of(i) for i in range(6)])
    for i in range(6, 9):
        engine.advance([split_of(i)], 1)
    engine.checkpoint(tmp_path / "ckpt")
    manifest = read_manifest(tmp_path / "ckpt")
    state = read_segment(tmp_path / "ckpt", manifest, "state")
    keys = [key for p in tree_partitions(state) for key in p.entries]
    assert len(keys) > 12 * len(set(keys))  # each key held many times
    assert len({id(key) for key in keys}) == len(set(keys))
