"""The plan/execute path reproduces the seed path bit for bit.

``golden_plan_equivalence.json`` was captured once from the seed code
(the inline execute-then-replay path, before the plan/execute split) and
is never regenerated: a seed-parity regression.  This test replays the
same fixed scenario on the current code and requires every recorded
field — output fingerprints, per-phase work breakdowns, legacy
wave-model makespans, graph node counts — to be ``==``, for all five
tree variants.  (That configurations agree with *each other* is the
oracle's job, ``tests/oracle``; this file is the one golden it left.)
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster.machine import Cluster, ClusterConfig
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.oracle.fleet import VARIANTS, count_job, run_record, split_of

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_plan_equivalence.json").read_text()
)


def scenario(variant: str, mode: WindowMode) -> list[dict]:
    """Everything the simulation depends on is pinned (cluster shape,
    straggler fraction, split contents, the job's name), so every field
    of the records is a function of the code path alone."""
    slider = Slider(
        count_job("equivalence-counts"),
        mode,
        config=SliderConfig(mode=mode, tree=variant),
        cluster=Cluster(ClusterConfig(num_machines=8, straggler_fraction=0.0)),
    )
    removed = 0 if mode is WindowMode.APPEND else 2
    single = 0 if mode is WindowMode.APPEND else 1
    results = [
        slider.initial_run([split_of(i) for i in range(6)]),
        slider.advance([split_of(10), split_of(11)], removed),
        slider.advance([split_of(12)], single),
    ]
    if mode is not WindowMode.FIXED:
        results.append(slider.advance([], 0))
    slider.verify_outputs()
    return [run_record(result) for result in results]


def test_golden_records_are_checked_in():
    assert set(GOLDEN) == {variant for variant, _ in VARIANTS}


@pytest.mark.parametrize(
    "variant,mode", VARIANTS, ids=[f"{v}-{m.value}" for v, m in VARIANTS]
)
def test_variant_matches_seed_golden(variant, mode):
    assert scenario(variant, mode) == GOLDEN[variant]
