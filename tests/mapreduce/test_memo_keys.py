"""The entry memo keeps none of the engine's str key objects alive.

A map task shares its exact-str keys through ``sys.intern``
(``test_shared_keys.py``), so that a key that left every partition is
freed.  The combine's entry memo remembers ``(key, count)`` pairs across
advances; it must store a str of its own, or a bounded cache would hold
an interned key, and interning an equal str would return that survivor.
Here the combines merge a few of many keys, so they take the fingerprint
delta, and the key that leaves sat in two splits that a combine merged.
"""

import gc
import sys

from repro.mapreduce.shuffle import _INTERN_KEYS
from repro.mapreduce.types import Split
from repro.slider.system import Slider
from repro.telemetry import ENGINE_KEEP_LAST
from tests.oracle.fleet import count_job, tree_partitions

#: Keys only one split holds: a combine of two leaves merges their one
#: shared key and passes these through.
OWN_KEYS = 30


def _word(*parts: str) -> str:
    """A str made at run time: an object of its own, not the literal's."""
    return "".join(parts)


def _split(i: int, *shared: str) -> Split:
    own = [_word("own-", str(i), "-", str(j)) for j in range(OWN_KEYS)]
    return Split.from_records(own + list(shared), label=f"own{i}")


def _held_key_ids(engine: Slider) -> set[int]:
    """The ids of the key objects of every partition the engine holds."""
    held = tree_partitions(list(engine.map_memo.values()))
    for tree in engine.trees:
        held += tree_partitions(tree)
        held += tree.memo.entries.values()
    return {id(key) for partition in held for key in partition.entries}


def test_the_entry_memo_holds_no_key_a_partition_holds(entry_hashes):
    """By identity, on every interpreter: no key in the memo is a key
    object a partition holds.  Where interned strs are mortal, the key
    two leaving splits shared is freed too, after the engine's record of
    its last runs moved on: the memo's pairs for it hold a copy."""
    splits = [_split(i, _word("gone", "-", "key")) for i in range(2)]
    splits += [_split(i) for i in range(2, 6)]
    engine = Slider(count_job(num_reducers=1))
    engine.initial_run(splits)
    keys = [*entry_hashes.young, *entry_hashes.old]
    assert "gone-key" in keys  # the delta remembered the merge
    assert not set(map(id, keys)) & _held_key_ids(engine)

    engine.advance([_split(6)], 2)  # both splits that held it leave
    assert "gone-key" not in engine.current_outputs()
    for i in range(7, 8 + ENGINE_KEEP_LAST):
        engine.advance([_split(i)], 1)
    keys = [*entry_hashes.young, *entry_hashes.old]
    assert "gone-key" in keys  # still remembered, by a copy
    assert not set(map(id, keys)) & _held_key_ids(engine)
    if _INTERN_KEYS:
        del splits
        gc.collect()
        fresh = _word("gone", "-", "key")
        assert sys.intern(fresh) is fresh
    engine.close()
