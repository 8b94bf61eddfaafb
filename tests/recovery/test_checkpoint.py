"""Checkpoint/restore: kill-at-every-boundary bit-identity and guards.

The sweep is the oracle's ``restored`` arm (``tests/oracle``): an engine
checkpointed, discarded and restored before *every* rule of every walk,
held to an uninterrupted reference in outputs, per-phase work, simulated
makespan, space, graph and plan.  Here it runs, as the sweep always has,
over the shared scenario with a simulated cluster attached.
"""

import dataclasses

import pytest

from repro import MapReduceJob, SumCombiner
from repro.cluster.machine import Cluster, ClusterConfig
from repro.common.errors import CheckpointError, CorruptionError
from repro.recovery.segments import read_manifest, read_segment, write_segments
from repro.slider.system import Slider
from repro.telemetry import SpanKind
from tests.oracle.fleet import CASES, VARIANTS, Fleet, case_of, count_job, split_of
SWEEP = ("reference", "restored")


def clustered() -> dict:
    return {"cluster": Cluster(ClusterConfig(num_machines=8, straggler_fraction=0.0))}


def sweep(case, job="scenario") -> None:
    """The scenario's motion, a kill before each step of it."""
    with Fleet(case, job=job, arms=SWEEP, first=6, common=clustered) as f:
        for step in (
            lambda: f.advance(2, 2),
            f.background,
            lambda: f.advance(1, 1),
            lambda: f.advance(0, 0),
            f.collect,
            lambda: f.advance(3, 1, repeat=True),
        ):
            step()
            f.check()
        assert f.kills >= 6


def test_kill_restore_sweep_all_variants_bit_identical():
    """The split-processing modes and the float job, which the per-variant
    cases below do not reach."""
    for case in CASES:
        if case[2]:
            sweep(case)
    sweep(CASES[0], job="kmeans")


@pytest.mark.parametrize(
    "variant,mode", VARIANTS, ids=[f"{v}-{m.value}" for v, m in VARIANTS]
)
def test_kill_restore_per_variant(variant, mode):
    sweep(case_of(variant))


def test_restore_rejects_mismatched_job(tmp_path):
    engine = Slider(count_job())
    engine.initial_run([split_of(0)])
    engine.checkpoint(tmp_path / "ckpt")
    other = count_job("different-job")
    with pytest.raises(CheckpointError, match="restore with"):
        Slider.restore(tmp_path / "ckpt", other)


def test_checkpoint_refuses_mid_run(tmp_path):
    engine = Slider(count_job())
    engine.initial_run([split_of(0)])
    with engine.telemetry.span("window-update", SpanKind.RUN):
        with pytest.raises(CheckpointError, match="mid-run"):
            engine.checkpoint(tmp_path / "ckpt")


def test_checkpoint_refuses_while_a_plan_is_open(tmp_path):
    """A job function that checkpoints its own engine runs while the
    executor holds the run's plan open."""
    engine = None

    def map_fn(record):
        engine.checkpoint(tmp_path / "ckpt")
        return [(record, 1)]

    engine = Slider(MapReduceJob(name="counts", map_fn=map_fn, combiner=SumCombiner()))
    with pytest.raises(CheckpointError, match="open plan"):
        engine.initial_run([split_of(0)])


def rewritten(source, target, edit):
    """A copy of the checkpoint at ``source`` with ``edit`` applied to its
    segments, written with fresh digests: a hand-built checkpoint."""
    manifest = read_manifest(source)
    segments = {
        name: read_segment(source, manifest, name) for name in manifest["segments"]
    }
    edit(segments)
    return write_segments(target, segments, manifest["meta"])


def test_restore_rejects_a_checkpoint_whose_trees_do_not_match_its_config(tmp_path):
    engine = Slider(count_job())
    engine.initial_run([split_of(i) for i in range(3)])
    engine.checkpoint(tmp_path / "ckpt")

    def other_variant(segments):
        config = segments["config"]["slider_config"]
        segments["config"]["slider_config"] = dataclasses.replace(
            config, tree="randomized"
        )

    def one_tree_short(segments):
        segments["state"]["trees"] = segments["state"]["trees"][:1]

    path = rewritten(tmp_path / "ckpt", tmp_path / "variant", other_variant)
    with pytest.raises(CheckpointError, match="holds a FoldingTree tree"):
        Slider.restore(path, count_job())
    path = rewritten(tmp_path / "ckpt", tmp_path / "short", one_tree_short)
    with pytest.raises(CheckpointError, match="holds 1 reducer trees"):
        Slider.restore(path, count_job())


def test_a_restored_config_holds_only_the_declared_fields(tmp_path):
    """A config pickled with an attribute its class no longer declares (a
    checkpoint written before the field was dropped) restores without it,
    and a later checkpoint does not carry it on."""
    engine = Slider(count_job())
    object.__setattr__(engine.config, "auto_gc", False)
    engine.initial_run([split_of(i) for i in range(3)])
    engine.checkpoint(tmp_path / "old")
    restored = Slider.restore(tmp_path / "old", count_job())
    declared = {f.name for f in dataclasses.fields(restored.config)}
    assert set(vars(restored.config)) == declared
    assert restored.config == engine.config
    restored.checkpoint(tmp_path / "again")
    manifest = read_manifest(tmp_path / "again")
    config = read_segment(tmp_path / "again", manifest, "config")["slider_config"]
    assert set(vars(config)) == declared


def test_restore_refuses_tampered_state(tmp_path):
    engine = Slider(count_job())
    engine.initial_run([split_of(i) for i in range(3)])
    engine.checkpoint(tmp_path / "ckpt")
    seg = tmp_path / "ckpt" / "state.seg"
    blob = seg.read_bytes()
    seg.write_bytes(blob[: len(blob) // 2] + b"\x00" + blob[len(blob) // 2 :])
    with pytest.raises(CorruptionError):
        Slider.restore(tmp_path / "ckpt", count_job())


def test_restored_engine_reports_match_fresh_runs(tmp_path):
    """Telemetry totals survive the restore: the resumed run's report is a
    phase *delta*, so the replayed baseline must be exact."""
    baseline = Slider(count_job())
    baseline.initial_run([split_of(i) for i in range(4)])
    expected = baseline.advance([split_of(9)], 1)

    engine = Slider(count_job())
    engine.initial_run([split_of(i) for i in range(4)])
    engine.checkpoint(tmp_path / "ckpt")
    resumed = Slider.restore(tmp_path / "ckpt", count_job())
    got = resumed.advance([split_of(9)], 1)

    assert got.outputs == expected.outputs
    assert got.report.work == expected.report.work
    assert got.report.breakdown == expected.report.breakdown
    assert got.report.time == expected.report.time
