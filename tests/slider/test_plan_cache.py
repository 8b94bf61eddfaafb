"""The plan cache: steady-state hits, invalidation, and replay identity.

The cache's correctness contract: a replayed advance is *driven by the
trees exactly like a fresh one* — same outputs, same work, same metered
breakdown — only the step re-emission (replanning) is skipped.  Its
safety contract: anything that could change the upcoming plan's shape
(config, job, chaos, non-steady motion, data-dependent planners) must
miss or bypass.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster.chaos import ChaosPlan, ChaosSchedule
from repro.core.compile import PlanCache, compile_plan
from repro.core.plan import Plan
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import Split
from repro.metrics import Phase
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode

WINDOW = 8


def count_job(num_reducers=2, name="counts"):
    return MapReduceJob(
        name=name,
        map_fn=lambda record: [(record, 1)],
        combiner=SumCombiner(),
        num_reducers=num_reducers,
    )


def split_of(i, spread=12, n=20):
    return Split.from_records(
        [f"w{(i * 7 + j) % spread}" for j in range(n)], label=f"s{i}"
    )


def make_slider(variant="folding", mode=WindowMode.VARIABLE, job=None, **kw):
    config = SliderConfig(mode=mode, tree=variant, **kw)
    return Slider(job or count_job(), mode, config=config)


def warmed_slider(variant="folding", mode=WindowMode.VARIABLE, **kw):
    """A slider driven through one full window period of steady slides."""
    slider = make_slider(variant, mode, **kw)
    slider.initial_run([split_of(i) for i in range(WINDOW)])
    removed = 0 if mode is WindowMode.APPEND else 1
    for k in range(WINDOW):
        slider.advance([split_of(WINDOW + k)], removed)
    return slider


class TestSteadyState:
    def test_folding_hits_after_one_window_period(self):
        slider = warmed_slider("folding")
        for k in range(12):
            result = slider.advance([split_of(100 + k)], 1)
            assert result.plan_cache_hit, k
            assert result.plan is not None
        stats = slider.plan_cache.stats
        assert stats.hits == 12
        assert stats.misses == WINDOW  # the warmup period, nothing after

    def test_rotating_hits_after_one_window_period(self):
        slider = warmed_slider("rotating", WindowMode.FIXED)
        for k in range(6):
            assert slider.advance([split_of(100 + k)], 1).plan_cache_hit

    def test_coalescing_hits_from_second_advance(self):
        slider = make_slider("coalescing", WindowMode.APPEND)
        slider.initial_run([split_of(i) for i in range(4)])
        first = slider.advance([split_of(10)], 0)
        assert not first.plan_cache_hit
        for k in range(8):
            assert slider.advance([split_of(11 + k)], 0).plan_cache_hit

    def test_replay_serves_the_stored_plan_object(self):
        slider = warmed_slider("folding")
        added = [split_of(100)]
        stored = slider.plan_cache.lookup(slider.planner._plan_key(added, 1))
        hit = slider.advance(added, 1)
        assert hit.plan_cache_hit and hit.plan is stored.plan
        # Replanning was skipped: the plan served is the one compiled
        # when this motion was first seen, not a fresh emission.
        assert hit.plan.label != f"incremental-{hit.run_index}"

    def test_replayed_outputs_and_work_match_uncached_twin(self):
        cached = warmed_slider("folding")
        plain = warmed_slider("folding", plan_cache=False)
        for k in range(6):
            a = cached.advance([split_of(50 + k)], 1)
            b = plain.advance([split_of(50 + k)], 1)
            assert a.plan_cache_hit and not b.plan_cache_hit
            assert a.outputs == b.outputs
            assert a.report.work == b.report.work
            assert a.report.breakdown == b.report.breakdown
        assert plain.plan_cache.stats.hits == 0
        assert plain.plan_cache.stats.misses == 0

    def test_uncacheable_variants_never_enter(self):
        for variant in ("randomized", "strawman"):
            slider = make_slider(variant)
            slider.initial_run([split_of(i) for i in range(4)])
            for k in range(3):
                assert not slider.advance([split_of(9 + k)], 1).plan_cache_hit
            stats = slider.plan_cache.stats
            assert stats.hits == 0 and stats.misses == 0, variant
            assert stats.uncacheable == 3, variant
            assert len(slider.plan_cache) == 0, variant


class TestInvalidation:
    def key_of(self, slider, added=1, removed=1):
        return slider.planner._plan_key([split_of(90 + i) for i in range(added)], removed)

    def test_any_config_change_misses(self):
        base = warmed_slider("folding")
        for change in (
            dict(rebuild_factor=3),
            dict(memo_budget=17),
            dict(seed=99),
            dict(memo_verify="off"),
        ):
            other = warmed_slider("folding", **change)
            assert self.key_of(base) != self.key_of(other), change

    def test_job_change_misses(self):
        base = warmed_slider("folding")
        renamed = warmed_slider("folding", job=count_job(name="other"))
        fan_out = warmed_slider("folding", job=count_job(num_reducers=3))
        assert self.key_of(base) != self.key_of(renamed)
        assert self.key_of(base) != self.key_of(fan_out)

    def test_motion_shape_is_part_of_the_key(self):
        slider = warmed_slider("folding")
        assert self.key_of(slider, added=1, removed=1) != self.key_of(
            slider, added=2, removed=1
        )
        assert self.key_of(slider, added=1, removed=1) != self.key_of(
            slider, added=1, removed=2
        )

    def test_bulk_jump_misses_then_recovers(self):
        slider = warmed_slider("folding")
        assert slider.advance([split_of(60)], 1).plan_cache_hit
        bulk = slider.advance([split_of(61), split_of(62), split_of(63)], 4)
        assert not bulk.plan_cache_hit  # never-seen motion over new structure
        assert slider.verify_outputs()

    def test_full_eviction_misses(self):
        slider = warmed_slider("folding")
        emptied = slider.advance([], WINDOW)
        assert not emptied.plan_cache_hit
        assert emptied.outputs == {}

    def test_chaos_bypasses_the_cache(self):
        # A schedule (even a calm one) means the compiled template cannot
        # be trusted: every run under chaos is keyed None and bypassed.
        config = SliderConfig(mode=WindowMode.VARIABLE, tree="folding")
        slider = Slider(
            count_job(),
            WindowMode.VARIABLE,
            config=config,
            chaos=ChaosSchedule(),
        )
        slider.initial_run([split_of(i) for i in range(4)])
        for k in range(3):
            assert not slider.advance([split_of(9 + k)], 1).plan_cache_hit
        stats = slider.plan_cache.stats
        assert stats.bypasses == 3
        assert stats.hits == 0 and stats.misses == 0

    def test_chaos_plan_bypasses_only_scheduled_runs(self):
        chaos = ChaosPlan(schedules={3: ChaosSchedule()})
        slider = Slider(
            count_job(), WindowMode.APPEND,
            config=SliderConfig(mode=WindowMode.APPEND, tree="coalescing"),
            chaos=chaos,
        )
        slider.initial_run([split_of(0)])
        hits = [slider.advance([split_of(1 + k)], 0).plan_cache_hit for k in range(5)]
        # Runs are numbered from the initial run; run 3 is scheduled.
        assert False in hits
        assert slider.plan_cache.stats.bypasses == 1

    def test_cache_disabled_by_config(self):
        slider = warmed_slider("folding", plan_cache=False)
        stats = slider.plan_cache.stats
        assert stats.hits == 0 and stats.misses == 0 and len(slider.plan_cache) == 0

    def test_capacity_validated(self):
        try:
            SliderConfig(plan_cache_capacity=0)
        except ValueError as exc:
            assert "plan_cache_capacity" in str(exc)
        else:  # pragma: no cover - defends the assertion below
            raise AssertionError("capacity 0 must be rejected")


class TestPlanCacheMechanics:
    def compiled(self, label):
        plan = Plan(label=label)
        plan.step("map", label=f"map:{label}", phase=Phase.MAP, n_inputs=1)
        return compile_plan(plan)

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        for name in ("a", "b", "c"):
            cache.store((name,), self.compiled(name))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.lookup(("a",)) is None  # oldest went first
        assert cache.lookup(("c",)) is not None

    def test_lookup_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        cache.store(("a",), self.compiled("a"))
        cache.store(("b",), self.compiled("b"))
        cache.lookup(("a",))
        cache.store(("c",), self.compiled("c"))
        assert cache.lookup(("a",)) is not None
        assert cache.lookup(("b",)) is None

    def test_stats_snapshot(self):
        cache = PlanCache()
        assert cache.stats.hit_rate == 0.0
        cache.lookup(("missing",))
        cache.store(("k",), self.compiled("k"))
        cache.lookup(("k",))
        snapshot = cache.stats.snapshot()
        assert snapshot["hits"] == 1 and snapshot["misses"] == 1
        assert snapshot["hit_rate"] == 0.5
        cache.clear()
        assert len(cache) == 0


# -- the property: caching is invisible to results -------------------------

motions = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=10
)


@settings(max_examples=25, deadline=None)
@given(motions=motions, spread=st.integers(2, 12))
def test_cached_and_fresh_plans_structurally_identical(motions, spread):
    """Twin sliders over one random motion sequence: the cache-enabled
    twin must produce the same outputs, the same metered work, and a
    structurally identical plan on every run."""
    cached = make_slider("folding")
    plain = make_slider("folding", plan_cache=False)
    initial = [split_of(i, spread=spread) for i in range(4)]
    window = 4
    for slider in (cached, plain):
        slider.initial_run(list(initial))
    for step, (add, remove) in enumerate(motions):
        remove = min(remove, window)
        window += add - remove
        added = [
            split_of(20 + 5 * step + j, spread=spread) for j in range(add)
        ]
        a = cached.advance(list(added), remove)
        b = plain.advance(list(added), remove)
        assert a.outputs == b.outputs
        assert a.report.work == b.report.work
        assert (
            a.plan.structural_signature() == b.plan.structural_signature()
        )
    # verify_outputs raises on divergence and returns the number of keys
    # checked — which is legitimately 0 when the motion emptied the window.
    assert cached.verify_outputs() == plain.verify_outputs()
