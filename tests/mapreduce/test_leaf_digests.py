"""A map task's leaves: no digest where they are built, one ``"pent"``
digest a leaf entry where a uid is read, and each leaf's uid the
fingerprint of its entries.

A map task encodes each key once, for its route only, and builds each
leaf (``Partition.from_value_lists``) with its uid unmade: an initial
run's map wave on a folding tree makes no digest.  A leaf's first uid
read folds its entries, one digest an entry.
"""

import pytest

from repro.apps.registry import APP_REGISTRY
from repro.common.hashing import stable_hash
from repro.core.partition import Partition
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.shuffle import HashPartitioner, run_map_task
from repro.slider import planning
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.conftest import count_digests


def _is_fingerprint(leaf: Partition) -> bool:
    return leaf.uid == Partition(dict(leaf.entries)).uid


@pytest.mark.parametrize("app", ["hct", "matrix"])
def test_an_initial_runs_map_wave_makes_no_digest(app, monkeypatch):
    """The registry job on a folding tree over 8 splits: the map tasks
    make no ``"pent"`` digest, and their leaves' uids, read afterwards,
    make one an entry."""
    spec = APP_REGISTRY[app]
    mode = WindowMode.VARIABLE
    config = SliderConfig(
        mode=mode, tree="folding", execution_backend="inprocess", workers=1
    )
    engine = Slider(spec.make_job(), mode, config=config)
    digests, _ = count_digests(monkeypatch)
    leaves = []
    real = planning.run_map_task

    def counting(*args, **kwargs):
        outputs = real(*args, **kwargs)
        leaves.extend(outputs)
        return outputs

    monkeypatch.setattr(planning, "run_map_task", counting)
    try:
        engine.initial_run(spec.make_splits(8, 7, 0))
    finally:
        engine.close()
    assert digests.count("pent") == 0
    assert all(leaf._uid is None for leaf in leaves)
    entries = sum(map(len, leaves))
    assert entries > 8 and all(map(_is_fingerprint, leaves))
    assert digests.count("pent") == 2 * entries  # the read, and the check's


def _float_keyed_job() -> MapReduceJob:
    """Keys off the by-value rule -- a float (with a float value, the
    pair is a block), a ``bool``, a float-bearing tuple -- and a str."""

    def map_fn(record):
        yield (record / 4, record / 8)
        yield (record % 2 == 0, 1)
        yield (("x", record / 2), record)
        yield (f"w{record % 3}", 1)

    return MapReduceJob(name="float-keys", map_fn=map_fn, combiner=SumCombiner())


@pytest.mark.parametrize("job", ["float-keys", "kmeans"])
def test_a_leaf_of_other_keys_and_values_makes_one_digest_an_entry(
    job, monkeypatch
):
    """Keys and values the by-value rule does not take -- kmeans'
    vectors, a float key with a float value (a block), a ``bool`` key, a
    float-bearing tuple key -- are hashed by the entry kernel when a
    leaf's uid is read: one digest an entry, to the leaf's fingerprint."""
    if job == "kmeans":
        spec = APP_REGISTRY["kmeans"]
        built, records = spec.make_job(), spec.make_splits(1, 7, 0)[0].records
    else:
        built, records = _float_keyed_job(), list(range(12))
    digests, _ = count_digests(monkeypatch)
    leaves = run_map_task(built, records, HashPartitioner(built.num_reducers))
    assert digests == []
    assert [leaf.uid for leaf in leaves]
    assert digests.count("pent") == sum(map(len, leaves)) > 0
    assert all(map(_is_fingerprint, leaves))


class Celsius(float):
    """A float subclass: encoded by the reference ladder."""


@pytest.mark.parametrize(
    "key", [True, 1.5, -0.0, Celsius(2.0), ("x", 0.5), (("a", 1),), (), b"k", None]
)
def test_a_leaf_uid_of_a_key_the_by_value_rule_leaves_off_is_its_pairs_hash(key):
    """Only a float key's pair with a float value is a block, so a leaf's
    uid read hashes any other key's entry as the pair's own hash."""
    leaf = Partition.from_value_lists({key: [3]}, SumCombiner())
    assert leaf.uid == stable_hash(1, salt="pfp") ^ stable_hash((key, 3), salt="pent")
    assert _is_fingerprint(leaf)
