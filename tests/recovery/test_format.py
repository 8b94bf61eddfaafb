"""Checkpoint format 4: a partition pickles as its two fields -- a uid
never made as ``None`` -- a tree as its ``state()``.  Counted in bytes
and digests, never timed."""

import json
import pickle

import pytest

from repro.apps.registry import APP_REGISTRY
from repro.core.partition import Partition
from repro.recovery.segments import MANIFEST_FILE, PICKLE_PROTOCOL
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.conftest import count_digests
from tests.oracle.fleet import count_job, split_of, tree_partitions

#: The ``state`` segment format 2 wrote for :func:`_engine`'s engine,
#: partitions pickled as slot state and each tree as its variant's field list.
VERSION_2_STATE_BYTES = 284_213


def _engine() -> Slider:
    """hct on a folding tree, window 256, seed 17, after 64 advances."""
    spec = APP_REGISTRY["hct"]
    splits = spec.make_splits(256 + 64, 17, 0)
    engine = Slider(
        spec.make_job(), WindowMode.VARIABLE, config=SliderConfig(tree="folding")
    )
    engine.initial_run(splits[:256])
    for split in splits[256:]:
        engine.advance([split], 1)
    return engine


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    path = tmp_path_factory.mktemp("format") / "ckpt"
    engine = _engine()
    engine.checkpoint(path)
    return engine, path


def test_the_state_segment_is_smaller_than_version_2_wrote(checkpointed):
    """The two-field reduce drops each partition's slot-state dict (about
    a tenth of the bytes); the tree's ``state()`` adds a few scalars."""
    _, path = checkpointed
    manifest = json.loads((path / MANIFEST_FILE).read_text())
    assert manifest["segments"]["state"]["bytes"] <= 0.93 * VERSION_2_STATE_BYTES


def test_unpickling_a_partition_hashes_nothing(monkeypatch):
    """The uid is carried, not recomputed (the restore sweep re-proves
    it), and the entries are the unpickler's own dict, not a copy."""
    partition = Partition({"a": 1, ("b", 2): 2.5, 3: (1.0, 2.0)})
    assert partition.uid  # made, so carried
    blob = pickle.dumps(partition, protocol=PICKLE_PROTOCOL)
    assert b"_unpickle_partition" in blob  # what a version 2 reader lacks
    digests, _ = count_digests(monkeypatch)
    loaded = pickle.loads(blob)
    assert digests == []
    assert type(loaded) is Partition and type(loaded.entries) is dict
    assert loaded.uid == partition.uid and loaded.entries == partition.entries


def test_a_method_wrapped_on_a_tree_is_not_its_state(tmp_path):
    """A profiler that wraps ``tree.advance`` on the instance (the e2e
    tracer does) leaves the tree checkpointable: the wrapper shadows a
    method, so ``state()`` leaves it out and the restored tree has none."""
    engine = Slider(count_job())
    engine.initial_run([split_of(i) for i in range(4)])
    tree = engine.trees[0]
    tree.advance = lambda added, removed, _real=tree.advance: _real(added, removed)
    assert "advance" not in tree.state()
    engine.checkpoint(tmp_path / "ckpt")
    restored = Slider.restore(tmp_path / "ckpt", count_job())
    assert "advance" not in vars(restored.trees[0])
    assert restored.current_outputs() == engine.current_outputs()


def test_a_restored_map_memo_leaf_is_the_trees_leaf(checkpointed):
    """Pickle keeps identity within the one ``state`` segment, so after a
    restore a window leaf is still the map memo's object, not a copy."""
    engine, path = checkpointed
    restored = Slider.restore(path, APP_REGISTRY["hct"].make_job())
    assert restored.current_outputs() == engine.current_outputs()
    for reducer, tree in enumerate(restored.trees):
        leaves = zip(tree.window_leaves(), restored.window, strict=True)
        for leaf, split in leaves:
            assert leaf is restored.map_memo[split.uid][reducer]


def test_a_version_3_checkpoint_restores_and_advances_as_version_4(tmp_path):
    """A version 3 writer made every uid before it wrote: the same engine
    with every uid read, its manifest saying 3, restores to the outputs
    and the next two advances of its version 4 twin, whose unmade uids
    the restore sweep made."""
    spec = APP_REGISTRY["hct"]
    splits = spec.make_splits(24, 17, 0)
    twins = []
    for version in (3, 4):
        engine = Slider(spec.make_job(), WindowMode.VARIABLE)
        engine.initial_run(splits[:16])
        for split in splits[16:20]:
            engine.advance([split], 1)
        if version == 3:
            held = tree_partitions(list(engine.map_memo.values()))
            for tree in engine.trees:
                held += tree_partitions(tree) + list(tree.memo.entries.values())
            assert all(p.uid for p in held)  # every uid made, as v3 wrote
        path = tmp_path / f"v{version}"
        engine.checkpoint(path)
        engine.close()
        manifest = json.loads((path / MANIFEST_FILE).read_text())
        assert manifest["version"] == 4
        manifest["version"] = version
        (path / MANIFEST_FILE).write_text(json.dumps(manifest))
        restored = Slider.restore(path, spec.make_job())
        results = [restored.advance([split], 1) for split in splits[20:22]]
        twins.append([(r.outputs, r.report.work) for r in results])
        restored.close()
    assert twins[0] == twins[1]
