"""Driver resume and chaos-under-restore bit-identity."""

import json

import pytest

from repro.cluster.chaos import ChaosPlan, ChaosSchedule, MachineCrash
from repro.cluster.machine import Cluster, ClusterConfig
from repro.common.errors import CheckpointError
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.recovery.segments import MANIFEST_FILE
from repro.slider.driver import StreamDriver
from repro.slider.system import Slider
from tests.oracle.fleet import Fleet, case_of, run_record as _run_record


def count_job() -> MapReduceJob:
    return MapReduceJob(
        name="event-count",
        map_fn=lambda record: [(record[1], 1)],
        combiner=SumCombiner(),
        num_reducers=2,
    )


def make_driver(**kwargs) -> StreamDriver:
    defaults = dict(
        job=count_job(),
        timestamp_fn=lambda record: record[0],
        slide=10.0,
        window=30.0,
        split_size=4,
    )
    defaults.update(kwargs)
    return StreamDriver(**defaults)


def stream(end: float) -> list[tuple[float, str]]:
    return [(float(t), f"s{int(t // 10)}") for t in range(int(end))]


def test_driver_restore_resumes_bit_identically(tmp_path):
    full = stream(46)
    baseline = make_driver()
    baseline_results = baseline.feed(full)

    kill_at = 25  # mid-slide: records 20..24 are fed but unacknowledged
    victim = make_driver()
    prefix_results = victim.feed(full[:kill_at])
    assert victim._pending  # the unacknowledged tail exists
    pending_before = list(victim._pending)
    victim.checkpoint(tmp_path / "ckpt")
    del victim

    resumed = StreamDriver.restore(
        tmp_path / "ckpt", count_job(), timestamp_fn=lambda record: record[0]
    )
    assert resumed._pending == pending_before
    tail_results = resumed.feed(full[kill_at:])

    expected = [_run_record(r) for r in baseline_results]
    got = [_run_record(r) for r in prefix_results + tail_results]
    assert got == expected
    assert resumed.current_outputs() == baseline.current_outputs()


def test_both_restores_refuse_a_version_1_checkpoint(tmp_path):
    """Version 1 held uids of encoding 1; the engine's restore and the
    driver's both say so instead of loading fingerprints that cannot verify."""
    driver = make_driver()
    driver.feed(stream(25))
    driver.checkpoint(tmp_path / "ckpt")
    manifest_path = tmp_path / "ckpt" / MANIFEST_FILE
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="uid encoding 1"):
        StreamDriver.restore(tmp_path / "ckpt", count_job(), lambda record: record[0])
    with pytest.raises(CheckpointError, match="uid encoding 1"):
        Slider.restore(tmp_path / "ckpt", count_job())


def test_driver_restore_replays_pending_tail_exactly_once(tmp_path):
    victim = make_driver()
    victim.feed(stream(25))
    victim.checkpoint(tmp_path / "ckpt")
    resumed = StreamDriver.restore(
        tmp_path / "ckpt", count_job(), timestamp_fn=lambda record: record[0]
    )
    # Crossing the next boundary closes the slide containing exactly the
    # replayed tail: five s2 records (t=20..24) and five more (t=25..29).
    produced = resumed.feed(stream(46)[25:])
    assert produced[0].outputs["s2"] == 10


def test_driver_flush_after_restore(tmp_path):
    victim = make_driver()
    victim.feed(stream(25))
    victim.checkpoint(tmp_path / "ckpt")
    resumed = StreamDriver.restore(
        tmp_path / "ckpt", count_job(), timestamp_fn=lambda record: record[0]
    )
    result = resumed.flush()
    assert result is not None
    assert result.outputs["s2"] == 5  # the replayed tail, nothing else


def _crashes() -> dict:
    """Every arm gets eight machines, two of which crash mid-run."""
    plan = ChaosPlan(
        schedules={
            1: ChaosSchedule(
                crashes=[MachineCrash(time=0.5, machine_id=2)], seed=3
            ),
            2: ChaosSchedule(
                crashes=[MachineCrash(time=0.2, machine_id=5, recover_at=4.0)],
                seed=4,
            ),
        }
    )
    cluster = Cluster(ClusterConfig(num_machines=8, straggler_fraction=0.0))
    return {"cluster": cluster, "chaos": plan}


def test_chaos_and_restore_compose_bit_identically():
    """Machines crash in the same runs the engine is killed/restored; the
    resumed runs and their fault telemetry (``report.recovery``, every
    counter) match the uninterrupted run."""
    arms = ("reference", "restored")
    case = case_of("folding")
    with Fleet(case, job="scenario", arms=arms, first=6, common=_crashes) as f:
        first = f.advance(2, 2)["reference"]
        second = f.advance(1, 1)["reference"]
        f.check()
        assert first.report.recovery and second.report.recovery
