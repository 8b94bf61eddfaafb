"""The plan/execute path reproduces the seed path bit for bit.

``golden_plan_equivalence.json`` was captured once from the seed code
(the inline execute-then-replay path, before the plan/execute split) and
is never regenerated: a seed-parity regression.  This test replays the
same fixed scenario on the current code and requires every recorded
field — output fingerprints, per-phase work breakdowns, legacy
wave-model makespans, node counts — to be ``==``, for all five tree
variants.  (That configurations agree with *each other* is the oracle's
job, ``tests/oracle``; this file is the one golden it left.)  Beside it,
:data:`LOG_DIGESTS` pins every field of every plan step and every slot
of every log record of a second scenario, one with every node kind and a
reduce step that executes none.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster.machine import Cluster, ClusterConfig
from repro.core.plan import REDUCER
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.oracle.fleet import (
    VARIANTS,
    count_job,
    plan_fields,
    run_record,
    split_of,
)

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


#: sha256 of ``repr`` of the ``plan_fields`` of every run of
#: :func:`logged`, captured while plan and graph were still logged
#: separately (the one log reproduces the plan field for field), and of
#: ``repr`` of each run's log records.  The second column was re-pinned
#: when the task-graph view went, from the code that still built it
#: (whose graph digests held), with the records' ``follows`` slot dropped;
#: and again when records began to name a node by its place: the code
#: that still logged content uids gives these digests with each record's
#: ``consumed`` uids replaced by their count and its ``produced`` dropped.
LOG_DIGESTS = {
    "folding": (
        "c5daf84ae6b61f6edefb2e13ffff27b5d82d31a5f92a9c15eaeed2401bf157d9",
        "430fb74af696986477447d5c345a56d22f0e61ab2eecf0ce6d7059638a9ff2d1",
    ),
    "randomized": (
        "a56620ca1100d971b9a55384c8b52ce64f62d4e33ed73c358631447bda27e701",
        "a4f0defdd80f7a5f7aedcc7aab2de05b7ac8465940342933720f4ca2ab22d2a5",
    ),
    "strawman": (
        "c6b70cd39f3512aa037ac4bfeb5d90dd4a3dbd4810793cc422dd0356ac7c0d07",
        "628556faff24ae5ebc3ff444f659c313acae9dc2d28e89d1ed9f96424b38db0a",
    ),
    "rotating": (
        "20012a993dd4d6441af36f76bff96d5bb6bb4270955d07d6eb1d61346aaf9353",
        "8a2d7f420e58da6912c5ff00c0842da5554d75b1e3c32ee7cf6ea49a00cbdf4d",
    ),
    "coalescing": (
        "1a39e90fed4a7bf0a81f1c9857a4a251563a1e2b619b46f4d2702a8db93a4df2",
        "87eedcf6932ec6f419ea290dfb2250e13c7b6e0c72df842e869de1e6c1363ac0",
    ),
}


def logged(variant: str, mode: WindowMode) -> list:
    """Three reducers over a stream of three words: one reducer never
    holds a key, so each run has a reduce step that executes no node."""
    slider = Slider(
        count_job("pinned-log", num_reducers=3),
        mode,
        config=SliderConfig(mode=mode, tree=variant),
    )
    removed = 0 if mode is WindowMode.APPEND else 2
    single = 0 if mode is WindowMode.APPEND else 1

    def split(i):
        return split_of(i, spread=3, n=6)

    return [
        slider.initial_run([split(i) for i in range(6)]),
        slider.advance([split(10), split(11)], removed),
        slider.advance([split(12)], single),
        slider.advance([split(6)], single),
    ]


def _digest(rows: list) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_the_scenario_logs_every_kind_of_node_and_a_reduce_with_none():
    kinds = set()
    for variant, mode in VARIANTS:
        for result in logged(variant, mode):
            records = result.plan.log.records
            kinds.update(record[0] for record in records)
            reducing = {
                record[REDUCER]
                for record in records
                if record[0] == "reduce" or str(record[2]).startswith("reduce-memo")
            }
            idle = [
                step.reducer
                for step in result.plan.steps
                if step.op == "reduce" and step.reducer not in reducing
            ]
            assert idle == [2], (variant, result.run_index)
    assert kinds == {
        "map", "shuffle", "combine", "pass_through", "memo_read",
        "memo_write", "reduce", None,
    }


@pytest.mark.parametrize(
    "variant,mode", VARIANTS, ids=[f"{v}-{m.value}" for v, m in VARIANTS]
)
def test_plan_and_graph_match_their_pinned_digests(variant, mode):
    results = logged(variant, mode)
    assert (
        _digest([plan_fields(result.plan) for result in results]),
        _digest([result.plan.log.records for result in results]),
    ) == LOG_DIGESTS[variant]
