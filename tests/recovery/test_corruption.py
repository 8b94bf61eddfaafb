"""Injected corruption is detected and repaired; outputs never change."""

import pytest

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
    assert engine.meter.total() > clean_engine.meter.total()


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


@pytest.mark.parametrize("variant", [variant for variant, _ in VARIANTS])
def test_verify_restored_hashes_each_distinct_partition_once(variant, monkeypatch):
    """A map-memo leaf is also a tree's leaf and a pass-through node is the
    child it is: the sweep met 12 032 slots over 7 997 objects on
    ``hct_var_w1000`` and fingerprinted every slot."""
    mode = dict(VARIANTS)[variant]
    engine = Slider(count_job(), mode, config=SliderConfig(mode=mode, tree=variant))
    engine.initial_run([split_of(i) for i in range(9)])
    engine.advance([split_of(9)], 0 if mode is WindowMode.APPEND else 1)
    held = {id(p): p for row in engine.map_memo.values() for p in row}
    for tree in engine.trees:
        held.update((id(p), p) for p in tree_partitions(tree))
        held.update((id(p), p) for p in tree.memo.entries.values())
    hashed = []
    verify = Partition.verify_fingerprint
    monkeypatch.setattr(
        Partition, "verify_fingerprint", lambda p: hashed.append(id(p)) or verify(p)
    )
    assert verify_restored(engine) == len(held) == len(hashed) == len(set(hashed))
    assert set(hashed) == set(held)
    # A failure is reported where the object was first met: as map output.
    split = engine.window.splits[-1]
    leaf = next(p for p in engine.map_memo[split.uid] if p)
    leaf.entries["\x00rot"] = 1
    with pytest.raises(CorruptionError, match=rf"at map_memo\[{split.uid:#x}\]"):
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
