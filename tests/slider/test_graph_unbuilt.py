"""Nothing is built, and a kept result pins nothing.

An advance logs its nodes as flat records and builds nothing from them:
no ``PlanStep`` is made until somebody reads ``result.plan.steps``.  That
no rule of any walk builds one — in the engine's process or, where
constructing one raises, in a worker — is an invariant of the oracle
(``tests/oracle``: ``counted_builds`` around every rule).  Here: the long
steady walks this suite has always named; a result kept for a hundred
advances still holds the records of its run; a kept result holds none of
its run's partitions; and what a run costs on a cluster (two waves,
priced from measured work, not from the records) is pinned to the bit,
calm and on the event executor.
"""

from __future__ import annotations

import gc
import pickle
from contextlib import contextmanager

import pytest

from repro.cluster import ChaosSchedule, Cluster, ClusterConfig, MachineCrash
from repro.core.parallel import WorkerPool
from repro.core.partition import Partition
from repro.mapreduce.types import Split
from repro.metrics import Phase
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.oracle.fleet import (
    DISPATCHING as _DISPATCHING,
    VARIANTS,
    Fleet,
    case_of,
    count,
    count_job,
    split_of,
)

#: The variants whose plans are cacheable, so that they dispatch.
DISPATCHING = [pair for pair in VARIANTS if pair[0] in _DISPATCHING]


def make_slider(variant, mode, cluster=None, **config):
    config = SliderConfig(mode=mode, tree=variant, **config)
    return Slider(count_job(), mode, config=config, cluster=cluster)


def steady(slider, mode, advances, first=6):
    """An initial window of six splits, then one in and one out."""
    removed = 0 if mode is WindowMode.APPEND else 1
    results = [slider.initial_run([split_of(i) for i in range(first)])]
    for i in range(advances):
        results.append(slider.advance([split_of(first + i)], removed))
    return results


@contextmanager
def unread(variant):
    """The results of 64 uniform advances of an engine nobody reads, and
    the list of what has been built since (nothing, yet)."""
    with Fleet(case_of(variant), job="scenario", arms=("reference",), first=6) as fleet:
        results = [fleet.advance()["reference"] for _ in range(64)]
        fleet.background()
        fleet.check()
        assert fleet.built == []
        yield results, fleet.built


@contextmanager
def dispatched(variant, monkeypatch):
    """The process arm's latest result after 65 dispatched advances, and
    its workers' replies: each carries its run's log as one list of flat
    records and its level marks, beside its root, state delta and
    telemetry, and nothing
    built (a worker that built a ``PlanStep`` raises, and the fleet fails
    on the fallback).  No payload asks for more, and
    once a worker holds its tree none carries it.  Four reducers: the
    parent advances 0 and 1 itself, the workers 2 and 3."""
    replies, payloads = [], []
    receive, submit = WorkerPool.receive, WorkerPool.submit

    def spy_receive(self, worker):
        value, size = receive(self, worker)
        if isinstance(value, dict) and "coded" in value:
            replies.append(value)
        return value, size

    def spy_submit(self, worker, blob):
        if blob.startswith(pickle.PROTO):
            payloads.append(pickle.loads(blob))
        submit(self, worker, blob)

    monkeypatch.setattr(WorkerPool, "receive", spy_receive)
    monkeypatch.setattr(WorkerPool, "submit", spy_submit)
    arms = ("reference", "process")
    job = (lambda: count_job(num_reducers=4), split_of)
    with Fleet(case_of(variant), job=job, arms=arms, first=6) as fleet:
        fleet.steady(64)
        last = fleet.advance()["process"]
        fleet.check()
        engine = fleet.engines["process"]
        assert last.plan_cache_hit
        assert count(engine, "backend.dispatched_reducers") == len(replies) > 64
        assert len(payloads) == len(replies)
        slide = {"reducer", "leaves", "removed", "label"}
        for payload in payloads:
            assert set(payload) in (slide, slide | {"seed"})
        assert sum("seed" in payload for payload in payloads) < len(payloads) / 4
        for reply in replies:
            assert set(reply) == {"coded", "events", "log"}
            assert type(reply["log"]) is list and reply["log"]
            assert all(flat(record) for record in reply["log"])
            assert b"PlanStep" not in pickle.dumps(reply)
        yield last, replies


def flat(record) -> bool:
    """A tuple of atoms and tuples of atoms."""
    if type(record) is tuple:
        return all(flat(item) for item in record)
    return record is None or type(record) in (int, float, str, bool, Phase)


@pytest.mark.parametrize("variant,mode", VARIANTS)
def test_an_advance_builds_no_node(variant, mode):
    """Each advance logs its nodes, and nothing is made of them."""
    with unread(variant) as (results, built):
        logs = [result.plan.log for result in results]
        nodes = [record for log in logs for record in log.records if record[0]]
        assert len(nodes) > 64 * 10
        assert all(flat(record) for log in logs for record in log.records)
        assert built == []


@pytest.mark.parametrize("variant,mode", DISPATCHING)
def test_a_worker_builds_no_node_and_replies_with_records(variant, mode, monkeypatch):
    with dispatched(variant, monkeypatch):
        pass


@pytest.mark.parametrize("variant,mode", VARIANTS)
def test_results_kept_for_a_hundred_advances_read_as_their_runs(variant, mode):
    late, twin = (make_slider(variant, mode) for _ in range(2))
    kept = steady(late, mode, 128)[::16]
    as_finished = [list(r.plan.log.records) for r in steady(twin, mode, 128)][::16]
    assert len(kept) == 9
    assert [result.plan.log.records for result in kept] == as_finished


def _live_partitions(uids: set[int]) -> int:
    # Partition has __slots__ and no __weakref__, so look for them.
    gc.collect()
    return sum(
        type(item) is Partition and item.uid in uids for item in gc.get_objects()
    )


@pytest.mark.parametrize("variant,mode", VARIANTS[:4])
def test_an_unread_result_pins_no_partition_of_its_run(variant, mode):
    """The coalescing tree's window only grows, so it is not here."""

    def own_split(i):  # no key, so no content id, in common with another
        return Split.from_records([f"s{i}.{j}" for j in range(8)], label=f"s{i}")

    slider = make_slider(variant, mode)
    first = own_split(0)
    results = [slider.initial_run([first] + [own_split(i) for i in range(1, 6)])]
    leaf_uids = {leaf.uid for leaf in slider.map_memo[first.uid]}
    assert _live_partitions(leaf_uids) == 2
    for i in range(6, 6 + 24):
        results.append(slider.advance([own_split(i)], 1))
    slider.collect_garbage()
    assert first.uid not in slider.map_memo
    records = results[0].plan.log.records
    assert len(records) > 10  # held, whole
    assert _live_partitions(leaf_uids) == 0
    assert [record[0] for record in records].count("map") == 6


#: ``report.time`` of an initial run over six splits, then two slides,
#: on eight calm machines, as ``float.hex``: the same floats with no
#: schedule and with one whose only crash falls after every makespan (the
#: calm path and the event executor).
WAVE_TIMES = {
    "folding": ("0x1.0999999999999p+7", "0x1.66a3d70a3d70cp+6", "0x1.577ae147ae146p+6"),
    "randomized": ("0x1.dc51eb851eb84p+6", "0x1.c48f5c28f5c2bp+6", "0x1.3c5c28f5c28f8p+6"),
    "strawman": ("0x1.0400000000000p+7", "0x1.f03d70a3d70a5p+6", "0x1.ec47ae147ae15p+6"),
    "rotating": ("0x1.2b33333333334p+7", "0x1.5b70a3d70a3dcp+6", "0x1.577ae147ae14cp+6"),
    "coalescing": ("0x1.5800000000000p+6", "0x1.a666666666665p+5", "0x1.a666666666661p+5"),
}


@pytest.mark.parametrize("variant,mode", VARIANTS)
def test_the_dag_time_model_prices_a_run_as_before(variant, mode):
    removed = 0 if mode is WindowMode.APPEND else 1
    late_crash = ChaosSchedule(crashes=[MachineCrash(time=1e9, machine_id=0)])
    for chaos in (None, late_crash):
        cluster = Cluster(ClusterConfig(num_machines=8, straggler_fraction=0.0))
        slider = Slider(
            count_job(), mode, config=SliderConfig(mode=mode, tree=variant),
            cluster=cluster, chaos=chaos,
        )
        results = [slider.initial_run([split_of(i) for i in range(6)])]
        results.append(slider.advance([split_of(10)], removed))
        results.append(slider.advance([split_of(11)], removed))
        times = tuple(result.report.time.hex() for result in results)
        assert times == WAVE_TIMES[variant], chaos
        assert all(bool(r.report.recovery) == (chaos is not None) for r in results)
