"""Replayed execution is bit-identical to fresh planning, for every variant.

With the plan cache on (the default), every run of every tree variant
must produce *exactly* the outputs, the metered work, the per-phase
breakdown, the simulated time, and the plan shape of a twin engine with
the cache disabled.  No approx comparisons anywhere — replay runs the
same combines in the same order, so exact equality is the spec.
"""

import pytest

from repro.cluster.machine import Cluster, ClusterConfig
from repro.mapreduce.combiners import SumCombiner, VectorSumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import Split
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode

VARIANTS = [
    ("folding", WindowMode.VARIABLE),
    ("randomized", WindowMode.VARIABLE),
    ("strawman", WindowMode.VARIABLE),
    ("rotating", WindowMode.FIXED),
    ("coalescing", WindowMode.APPEND),
]

WINDOW = 6
STEADY_ADVANCES = 14  # > WINDOW, so cacheable variants replay for real


def count_job():
    return MapReduceJob(
        name="counts",
        map_fn=lambda record: [(record, 1)],
        combiner=SumCombiner(),
        num_reducers=2,
    )


def centroid_job():
    return MapReduceJob(
        name="centroids",
        map_fn=lambda record: [
            (record % 3, (1, (float(record), float(record) * 0.5)))
        ],
        combiner=VectorSumCombiner(),
        num_reducers=2,
    )


def split_of(i, n=18):
    return Split.from_records(
        [f"w{(i * 7 + j) % 11}" for j in range(n)], label=f"s{i}"
    )


def quiet_cluster():
    return Cluster(ClusterConfig(num_machines=6, straggler_fraction=0.0))


def build(variant, mode, job_factory=count_job, **config_kw):
    config = SliderConfig(mode=mode, tree=variant, **config_kw)
    return Slider(job_factory(), mode, config=config, cluster=quiet_cluster())


def drive(slider, mode, splits_fn=split_of):
    results = [slider.initial_run([splits_fn(i) for i in range(WINDOW)])]
    removed = 0 if mode is WindowMode.APPEND else 1
    for k in range(STEADY_ADVANCES):
        results.append(slider.advance([splits_fn(WINDOW + k)], removed))
    return results


def assert_runs_identical(compiled_runs, plain_runs):
    assert len(compiled_runs) == len(plain_runs)
    for a, b in zip(compiled_runs, plain_runs):
        assert a.outputs == b.outputs
        assert a.report.work == b.report.work
        assert a.report.time == b.report.time
        assert a.report.breakdown == b.report.breakdown
        assert a.plan.shape() == b.plan.shape()
        assert a.plan.structural_signature() == b.plan.structural_signature()


@pytest.mark.parametrize("variant,mode", VARIANTS)
def test_compiled_equals_uncompiled(variant, mode):
    compiled = build(variant, mode)  # cache on by default
    plain = build(variant, mode, plan_cache=False)
    assert_runs_identical(drive(compiled, mode), drive(plain, mode))
    for slider in (compiled, plain):
        assert slider.verify_outputs()
    if variant in ("folding", "rotating", "coalescing"):
        stats = compiled.plan_cache.stats
        assert stats.hits > 0, "steady state must actually replay"
    assert plain.plan_cache.stats.hits == 0


def test_vector_combiner_equivalence_under_replay():
    def splits(i):
        return Split.from_records(
            [i * 13 + j for j in range(12)], label=f"s{i}"
        )

    compiled = build("folding", WindowMode.VARIABLE, job_factory=centroid_job)
    plain = build(
        "folding",
        WindowMode.VARIABLE,
        job_factory=centroid_job,
        plan_cache=False,
    )
    compiled_runs = drive(compiled, WindowMode.VARIABLE, splits_fn=splits)
    plain_runs = drive(plain, WindowMode.VARIABLE, splits_fn=splits)
    assert_runs_identical(compiled_runs, plain_runs)
    assert compiled.plan_cache.stats.hits > 0
    for count, vec in compiled_runs[-1].outputs.values():
        assert type(count) is int and type(vec) is tuple


def test_steady_state_hit_rate_exceeds_99_percent():
    """The driver-sweep acceptance bar, in miniature: after the one-window
    warmup, a long steady advance sequence is ≥99% cache hits."""
    slider = build("folding", WindowMode.VARIABLE)
    slider.initial_run([split_of(i) for i in range(WINDOW)])
    # Warmup: the folding structure key recurs with period = the next
    # power of two above the window, so drive until the first replay.
    for k in range(4 * WINDOW):
        if slider.advance([split_of(WINDOW + k)], 1).plan_cache_hit:
            break
    else:  # pragma: no cover - defends the loop above
        raise AssertionError("steady slides never reached a cache hit")
    hits = 0
    runs = 120
    for k in range(runs):
        if slider.advance([split_of(50 + k)], 1).plan_cache_hit:
            hits += 1
    assert hits / runs >= 0.99
    assert hits == runs  # in a calm steady state it is in fact 100%
