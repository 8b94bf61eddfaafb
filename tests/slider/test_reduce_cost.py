"""The foreground pays for its delta — as counts, not clocks.

Beside ``test_advance_cost.py`` (interpreter work follows the plan, not
the window): Reduce follows the keys the slide's leaves carry, not the
keys of the root, and a map task encodes each distinct key once.  Both
are ``call`` + ``c_call`` profile events; these are the deterministic hold
behind CI's traced ``matrix_fix_w40_ckpt`` share (``e2e-selfcheck``).
"""

from __future__ import annotations

import statistics

from repro.apps.registry import APP_REGISTRY
from repro.common.hashing import _encode_fast, encode_key, stable_hash
from repro.mapreduce.shuffle import HashPartitioner, run_map_task
from repro.mapreduce.types import Split
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.conftest import profile_calls
from tests.oracle.fleet import count_job

#: Keys a slide's leaves carry: five enter with a split, five leave.
CARRIED = 5


def _reduce_events(root_keys: int, exact: bool = True) -> float:
    """Median events of ``reduce_all`` over slides of ``2 * CARRIED`` keys
    against a root of ``root_keys`` (most of them one wide split's, which
    stays)."""
    job = count_job()
    job.combiner.exact = exact  # on the instance: the scan, when False

    def small(i: int) -> Split:
        return Split.from_records(
            [f"k{i}.{j}" for j in range(CARRIED)], label=f"small{i}"
        )

    wide = Split.from_records([f"wide{j}" for j in range(root_keys)], label="wide")
    config = SliderConfig(execution_backend="inprocess", workers=1)
    engine = Slider(job, WindowMode.VARIABLE, config)
    engine.initial_run([small(i) for i in range(12)] + [wide])
    inner, events = engine.planner.reduce_all, []

    def counted(roots, candidates=None):
        result, count, _ = profile_calls(lambda: inner(roots, candidates))
        events.append(count)
        return result

    engine.planner.reduce_all = counted
    try:
        for i in range(12, 22):
            result = engine.advance([small(i)], 1)
            assert len(result.changed_keys) == len(result.removed_keys) == CARRIED
            assert len(result.outputs) == root_keys + 12 * CARRIED
    finally:
        engine.close()
    return statistics.median(events)


def test_reduce_follows_the_slides_keys_not_the_roots():
    small, large = _reduce_events(200), _reduce_events(2000)
    assert abs(large / small - 1) <= 0.05, f"{small:.0f} -> {large:.0f} events"
    # The scan a combiner that is not exact takes is the reference: 10x.
    scanned = _reduce_events(200, False), _reduce_events(2000, False)
    assert scanned[1] > 5 * scanned[0] and scanned[0] > small


def test_a_map_task_encodes_each_distinct_key_once():
    """One top-level ``_encode_fast`` a distinct key (the route and the
    leaf's entry hash are finished from it), one a value, one a leaf's
    length term; a key used to be encoded for each of its two hashes."""
    spec = APP_REGISTRY["matrix"]
    job = spec.make_job()
    watched = _encode_fast.__code__
    for split in spec.make_splits(2, 5):
        outputs, _, hits = profile_calls(
            lambda: run_map_task(job, split.records, HashPartitioner(job.num_reducers)),
            watched,
        )
        entries = [item for leaf in outputs for item in leaf.entries.items()]
        assert len(entries) > 100

        def once(values) -> int:  # calls, nested items included, to encode each
            return profile_calls(lambda: [encode_key(v) for v in values], watched)[2]

        keys, values = zip(*entries)
        lengths = profile_calls(
            lambda: [stable_hash(len(leaf), salt="pfp") for leaf in outputs], watched
        )[2]
        assert hits == once(keys) + once(values) + lengths
        assert hits < 2 * once(keys) + once(values)
