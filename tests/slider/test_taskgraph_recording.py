"""The log recorded per run, and its equivalence to the charges.

The core invariant of the refactor: the per-phase work charged to the
engine's telemetry is a *derived view* of the run's log — per-phase work
summed over its records equals what was charged (up to float summation
order), for every tree variant and every kind of window movement.
"""

import dataclasses

import pytest

from repro.cluster import ChaosSchedule, Cluster, ClusterConfig, MachineCrash
from repro.core.plan import LIVE, REDUCER
from repro.mapreduce.types import Split
from repro.metrics import Phase
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.oracle.fleet import SPLIT_UID, VARIANTS, count_job, split_of


def make_slider(variant, mode, cluster=None, **config_kwargs):
    config = SliderConfig(mode=mode, tree=variant, **config_kwargs)
    return Slider(count_job(), mode, config=config, cluster=cluster)


def kinds(result) -> list:
    """The kind of each node the run logged, in order."""
    return [record[0] for record in result.plan.log.records if record[0] is not None]


def assert_graph_matches_meter(result):
    """Work summed over the run's records equals the meter's per-run
    breakdown, per phase."""
    records = [record for record in result.plan.log.records if record[0] is not None]
    by_phase: dict[str, float] = {}
    for record in records:
        phase = record[1].value
        by_phase[phase] = by_phase.get(phase, 0.0) + record[3]
    breakdown = {
        name: amount
        for name, amount in result.report.breakdown.items()
        if name != Phase.BACKGROUND.value
    }
    for name, amount in breakdown.items():
        assert by_phase.get(name, 0.0) == pytest.approx(amount), name
    for name in by_phase:
        assert name in breakdown or by_phase[name] == pytest.approx(0.0)
    assert sum(record[3] for record in records) == pytest.approx(result.report.work)


@pytest.mark.parametrize("variant,mode", VARIANTS)
def test_graph_work_equals_meter_work(variant, mode):
    slider = make_slider(variant, mode)
    result = slider.initial_run([split_of(i) for i in range(6)])
    assert_graph_matches_meter(result)
    removed = 0 if mode is WindowMode.APPEND else 2
    result = slider.advance([split_of(10), split_of(11)], removed)
    assert_graph_matches_meter(result)
    # A no-op advance also balances (pure memo-read runs).
    result = slider.advance([], 0)
    assert_graph_matches_meter(result)


@pytest.mark.parametrize("variant,mode", VARIANTS)
def test_graph_taxonomy(variant, mode):
    slider = make_slider(variant, mode)
    # Disjoint keyspaces per split: sliding touches only the keys of the
    # splits that actually moved, leaving the rest to memoized reuse.
    initial = slider.initial_run(
        [Split.from_records([f"k{i}"] * 8, label=f"s{i}") for i in range(6)]
    )
    counts = kinds(initial)
    assert counts.count("map") == 6
    assert counts.count("reduce") == len(initial.changed_keys)
    removed = 0 if mode is WindowMode.APPEND else 1
    narrow = Split.from_records(["k0"] * 8, label="narrow")
    result = slider.advance([narrow], removed)
    counts = kinds(result)
    assert counts.count("map") == 1
    # Unchanged keys must be served from memoized state.
    assert counts.count("memo_read") > 0


def test_reduce_nodes_depend_on_combines():
    """A record names its node by place: a reducer's ``reduce`` nodes
    follow the nodes its tree ran, and read its one live root."""
    slider = make_slider("folding", WindowMode.VARIABLE)
    slider.initial_run([split_of(i) for i in range(4)])
    records = slider.advance([split_of(9)], 1).plan.log.records
    swept = set()
    for record in records:
        if record[0] == "reduce":
            assert record[REDUCER] in swept, (
                "reduce must consume this run's tree output"
            )
            assert record[LIVE] == 1
        elif record[0] in ("combine", "pass_through"):
            swept.add(record[REDUCER])
    assert "reduce" in [record[0] for record in records]


def test_map_outputs_feed_combines():
    """The fresh split's shuffle comes first, and each reducer it fed a
    non-empty leaf then runs a node with a live input."""
    slider = make_slider("folding", WindowMode.VARIABLE)
    slider.initial_run([split_of(i) for i in range(4)])
    split = split_of(9)
    records = slider.advance([split], 0).plan.log.records
    (shuffle,) = [
        index
        for index, record in enumerate(records)
        if record[0] == "shuffle" and record[SPLIT_UID] == split.uid
    ]
    fed = {reducer for reducer, leaf in enumerate(slider.map_memo[split.uid]) if leaf}
    swept = {
        record[REDUCER]
        for record in records[shuffle + 1 :]
        if record[0] in ("combine", "pass_through") and record[LIVE]
    }
    assert fed and fed <= swept


def test_background_work_not_recorded():
    """Background pre-processing runs between windows and must not leak
    into any run's log."""
    slider = make_slider(
        "rotating", WindowMode.FIXED, split_mode=True, bucket_size=1
    )
    slider.initial_run([split_of(i) for i in range(4)])
    first = slider.advance([split_of(10)], 1)
    slider.background_preprocess()
    second = slider.advance([split_of(11)], 1)
    for result in (first, second):
        assert all(
            record[1] is not Phase.BACKGROUND
            for record in result.plan.log.records
        )
        assert_graph_matches_meter(result)


def test_record_graph_shim_is_gone():
    """The deprecation window elapsed: the log is the run, and neither
    SliderConfig nor a result carries the dead knob or the graph view."""
    with pytest.raises(TypeError, match="record_graph"):
        SliderConfig(mode=WindowMode.VARIABLE, record_graph=False)
    slider = Slider(count_job(), WindowMode.VARIABLE)
    result = slider.initial_run([split_of(0)])
    assert result.plan.log.records
    assert not hasattr(result, "graph")
    result = slider.advance([split_of(1)], 0)
    assert result.plan.log.records


def test_dag_time_model_validates():
    """Two waves is the one time model: the knob is gone, not ignored."""
    with pytest.raises(TypeError, match="time_model"):
        SliderConfig(time_model="dag")
    assert len(dataclasses.fields(SliderConfig)) == 7


class TestDagTimeModel:
    """On a cluster, log-derived work still equals the meter's work for
    every run, outputs stay correct, and the simulated time is a map wave
    then a reduce wave: the barrier falls inside the makespan."""

    def quiet_cluster(self, n=8):
        return Cluster(
            ClusterConfig(num_machines=n, straggler_fraction=0.0)
        )

    @pytest.mark.parametrize("variant,mode", VARIANTS)
    def test_dag_replay_property(self, variant, mode):
        # A schedule whose one crash falls after every makespan: the runs
        # take the event executor, which reports map_finish.
        late_crash = ChaosSchedule(crashes=[MachineCrash(time=1e9, machine_id=0)])
        slider = Slider(
            count_job(), mode, config=SliderConfig(mode=mode, tree=variant),
            cluster=self.quiet_cluster(), chaos=late_crash,
        )
        results = [slider.initial_run([split_of(i) for i in range(6)])]
        removed = 0 if mode is WindowMode.APPEND else 1
        results.append(slider.advance([split_of(10)], removed))
        results.append(slider.advance([split_of(11)], removed))
        for result in results:
            assert_graph_matches_meter(result)
            assert 0 < result.report.recovery["map_finish"] <= result.report.time
        slider.verify_outputs()

    def test_waves_default_unchanged_by_dag_availability(self):
        """The legacy two-wave replay is byte-identical across two
        identically configured engines (logs are always recorded)."""
        recorded = make_slider(
            "folding", WindowMode.VARIABLE, cluster=self.quiet_cluster()
        )
        bare = make_slider(
            "folding", WindowMode.VARIABLE, cluster=self.quiet_cluster()
        )
        for slider in (recorded, bare):
            slider.initial_run([split_of(i) for i in range(6)])
        r1 = recorded.advance([split_of(10)], 1)
        r2 = bare.advance([split_of(10)], 1)
        assert r1.report.time == r2.report.time
        assert r1.report.work == r2.report.work
