"""The task-graph IR recorded per run, and its equivalence to the meter.

The core invariant of the refactor: the WorkMeter totals are a *derived
view* of the task graph — per-phase work summed over graph nodes equals
what the legacy metering charged (up to float summation order), for every
tree variant and every kind of window movement.
"""

import dataclasses

import pytest

from repro.cluster import Cluster, ClusterConfig, ExecutorConfig
from repro.mapreduce.types import Split
from repro.metrics import Phase
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.oracle.fleet import VARIANTS, count_job, split_of


def make_slider(variant, mode, cluster=None, **config_kwargs):
    config = SliderConfig(mode=mode, tree=variant, **config_kwargs)
    return Slider(count_job(), mode, config=config, cluster=cluster)


def assert_graph_matches_meter(result):
    """Graph-derived work equals the meter's per-run breakdown, per phase."""
    graph = result.graph
    assert graph is not None
    # Edges point backwards: the graph is acyclic by construction.
    assert all(dep < node.uid for node in graph.nodes for dep in node.deps)
    by_phase = {
        phase.value: amount for phase, amount in graph.work_by_phase().items()
    }
    breakdown = {
        name: amount
        for name, amount in result.report.breakdown.items()
        if name != Phase.BACKGROUND.value
    }
    for name, amount in breakdown.items():
        assert by_phase.get(name, 0.0) == pytest.approx(amount), name
    for name in by_phase:
        assert name in breakdown or by_phase[name] == pytest.approx(0.0)
    assert graph.total_work() == pytest.approx(result.report.work)


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
    counts = initial.graph.counts_by_kind()
    assert counts["map"] == 6
    assert counts.get("reduce", 0) == len(initial.changed_keys)
    removed = 0 if mode is WindowMode.APPEND else 1
    narrow = Split.from_records(["k0"] * 8, label="narrow")
    result = slider.advance([narrow], removed)
    counts = result.graph.counts_by_kind()
    assert counts["map"] == 1
    # Unchanged keys must be served from memoized state.
    assert counts.get("memo_read", 0) > 0


def test_reduce_nodes_depend_on_combines():
    slider = make_slider("folding", WindowMode.VARIABLE)
    slider.initial_run([split_of(i) for i in range(4)])
    graph = slider.advance([split_of(9)], 1).graph
    reduce_nodes = [n for n in graph.nodes if n.kind == "reduce"]
    assert reduce_nodes
    for node in reduce_nodes:
        assert node.reducer is not None
        assert node.deps, "reduce must consume this run's tree output"


def test_map_outputs_feed_combines():
    slider = make_slider("folding", WindowMode.VARIABLE)
    slider.initial_run([split_of(i) for i in range(4)])
    graph = slider.advance([split_of(9)], 0).graph
    kinds = {n.uid: n.kind for n in graph.nodes}
    feeding = {
        kinds[d]
        for n in graph.nodes
        if n.kind in ("combine", "pass_through")
        for d in n.deps
    }
    # The fresh split's shuffle output is consumed by the tree.
    assert "shuffle" in feeding or "map" in feeding


def test_background_work_not_recorded():
    """Background pre-processing runs between windows and must not leak
    into any run's graph."""
    slider = make_slider(
        "rotating", WindowMode.FIXED, split_mode=True, bucket_size=1
    )
    slider.initial_run([split_of(i) for i in range(4)])
    first = slider.advance([split_of(10)], 1)
    slider.background_preprocess()
    second = slider.advance([split_of(11)], 1)
    for result in (first, second):
        assert all(
            node.phase is not Phase.BACKGROUND for node in result.graph.nodes
        )
        assert_graph_matches_meter(result)


def test_record_graph_shim_is_gone():
    """The deprecation window elapsed: the plan/graph IR is the run, and
    SliderConfig no longer carries the dead knob at all."""
    with pytest.raises(TypeError, match="record_graph"):
        SliderConfig(mode=WindowMode.VARIABLE, record_graph=False)
    slider = Slider(count_job(), WindowMode.VARIABLE)
    result = slider.initial_run([split_of(0)])
    assert result.graph is not None
    assert result.plan is not None
    result = slider.advance([split_of(1)], 0)
    assert result.graph is not None
    assert result.plan is not None


def test_dag_time_model_validates():
    """Two waves is the one time model: the knob is gone, not ignored."""
    with pytest.raises(TypeError, match="time_model"):
        SliderConfig(time_model="dag")
    assert len(dataclasses.fields(SliderConfig)) == 12


class TestDagTimeModel:
    """On a cluster, graph-derived work still equals the meter's work for
    every run, outputs stay correct, and the simulated time is a map wave
    then a reduce wave: the barrier falls inside the makespan."""

    def quiet_cluster(self, n=8):
        return Cluster(
            ClusterConfig(num_machines=n, straggler_fraction=0.0)
        )

    @pytest.mark.parametrize("variant,mode", VARIANTS)
    def test_dag_replay_property(self, variant, mode):
        slider = Slider(  # the event executor reports map_finish
            count_job(), mode, config=SliderConfig(mode=mode, tree=variant),
            cluster=self.quiet_cluster(), executor_config=ExecutorConfig(),
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
        identically configured engines (graphs are always recorded)."""
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
