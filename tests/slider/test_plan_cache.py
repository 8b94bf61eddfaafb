"""The structural states an engine has seen: steady-state hits and misses.

What is left of the plan cache is a set of keys.  An advance from a
state the engine has advanced from before is *recurring* — the process
backend's first rung — and runs exactly like any other: its own plan,
same outputs, same work, same metered breakdown.  The safety contract of
the key: anything that could change the upcoming plan's shape (non-steady
motion, data-dependent planners) must miss or go unkeyed.  A fault
schedule changes only simulated time, so a chaos run is keyed as its calm
twin is.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster.chaos import ChaosPlan, ChaosSchedule, MachineCrash
from repro.cluster.machine import Cluster, ClusterConfig
from repro.slider.planning import PlanCache
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.oracle.fleet import count_job, split_of

WINDOW = 8


def make_slider(variant="folding", mode=WindowMode.VARIABLE, **kw):
    config = SliderConfig(mode=mode, tree=variant, **kw)
    return Slider(count_job(), mode, config=config)


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

    def test_a_steady_advance_returns_its_own_plan(self):
        slider = warmed_slider("folding")
        added = split_of(100)
        hit = slider.advance([added], 1)
        assert hit.plan_cache_hit
        # Not the plan of the run that first saw this state: this run's
        # label, and the uid of the split this run added.
        assert hit.plan.label == f"incremental-{hit.run_index}"
        (map_step,) = [s for s in hit.plan.steps if s.op == "map"]
        assert map_step.memo_uid == added.uid
        assert map_step.label == f"map:{added.uid:#x}"

    def test_recurring_outputs_and_work_match_forgetful_twin(self):
        """A twin whose set is emptied before every advance never has a
        recurring run (under the process backend it never dispatches)."""
        recurring = warmed_slider("folding")
        forgetful = warmed_slider("folding")
        for k in range(6):
            forgetful.plan_cache.clear()
            a = recurring.advance([split_of(50 + k)], 1)
            b = forgetful.advance([split_of(50 + k)], 1)
            assert a.plan_cache_hit and not b.plan_cache_hit
            assert a.outputs == b.outputs
            assert a.report.work == b.report.work
            assert a.report.breakdown == b.report.breakdown
            assert a.plan.structural_signature() == b.plan.structural_signature()
        assert forgetful.plan_cache.stats.hits == 0

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

    @staticmethod
    def assert_a_crash_changes_only_time(variant, mode, schedule_for):
        """A cluster engine whose runs ``schedule_for(calm times)`` fells
        a machine mid-wave against its calm twin: each advance has the
        twin's ``plan_cache_hit``, outputs, changed and removed keys and
        work to the bit, and Reduce never leaves the candidate path."""
        removed = 0 if mode is WindowMode.APPEND else 1

        def run(chaos=None):
            slider = Slider(
                count_job(),
                mode,
                config=SliderConfig(mode=mode, tree=variant),
                cluster=Cluster(ClusterConfig(num_machines=4, straggler_fraction=0.0)),
                chaos=chaos,
            )
            slider.initial_run([split_of(i) for i in range(WINDOW)])
            advances = [
                slider.advance([split_of(WINDOW + k)], removed)
                for k in range(2 * WINDOW)
            ]
            return slider, advances

        _, calm = run()
        chaos = schedule_for([result.report.time for result in calm])
        slider, crashed = run(chaos)
        assert any(result.plan_cache_hit for result in calm)  # not vacuous
        for a, b in zip(crashed, calm):
            for field in ("plan_cache_hit", "outputs", "changed_keys", "removed_keys"):
                assert getattr(a, field) == getattr(b, field), (a.run_index, field)
            assert a.report.work.hex() == b.report.work.hex(), a.run_index
            schedule = chaos.for_run(a.run_index)
            if schedule is None or schedule.is_empty():
                assert a.report.recovery == {}, a.run_index  # the calm path
            else:
                assert a.report.recovery["crashes"] == 1.0, a.run_index
        assert not [n for n in slider.telemetry.counters if n.startswith("reduce.scan")]

    def test_chaos_bypasses_the_cache(self):
        """One schedule covers every run: a crash halfway through the
        shortest calm makespan."""

        def every_run(times):
            when = min(times) / 2
            return ChaosSchedule(crashes=[MachineCrash(time=when, machine_id=1)])

        self.assert_a_crash_changes_only_time("folding", WindowMode.VARIABLE, every_run)

    def test_chaos_plan_bypasses_only_scheduled_runs(self):
        """A plan covers some runs, each felled mid-wave and back before
        its run ends, and gives one an empty schedule, priced on the calm
        path.  Runs are numbered from the initial run."""

        def some_runs(times):
            def felled(when):
                crash = MachineCrash(time=when, machine_id=2, recover_at=1.5 * when)
                return ChaosSchedule(crashes=[crash])

            plan = ChaosPlan({k + 1: felled(times[k] / 2) for k in (2, 5, 9)})
            plan.schedules[12] = ChaosSchedule()
            return plan

        self.assert_a_crash_changes_only_time("coalescing", WindowMode.APPEND, some_runs)


class TestPlanCacheMechanics:
    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        for name in ("a", "b", "c"):
            cache.store((name,))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.lookup(("a",)) is False  # oldest went first
        assert cache.lookup(("c",)) is True

    def test_lookup_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        cache.store(("a",))
        cache.store(("b",))
        cache.lookup(("a",))
        cache.store(("c",))
        assert cache.lookup(("a",))
        assert not cache.lookup(("b",))

    def test_stats_snapshot(self):
        cache = PlanCache()
        assert cache.capacity == 256
        assert cache.stats.hit_rate == 0.0
        cache.lookup(("missing",))
        cache.store(("k",))
        cache.lookup(("k",))
        snapshot = cache.stats.snapshot()
        assert snapshot["hits"] == 1 and snapshot["misses"] == 1
        assert snapshot["hit_rate"] == 0.5
        cache.clear()
        assert len(cache) == 0


# -- the property: having seen a state is invisible to results -------------

motions = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=10
)


@settings(max_examples=25, deadline=None)
@given(motions=motions, spread=st.integers(2, 12))
def test_cached_and_fresh_plans_structurally_identical(motions, spread):
    """Twin sliders over one random motion sequence: the twin that
    remembers the states it has seen must produce the same outputs, the
    same metered work, and a structurally identical plan on every run as
    the twin whose set is emptied before each advance."""
    cached = make_slider("folding")
    plain = make_slider("folding")
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
        plain.plan_cache.clear()
        a = cached.advance(list(added), remove)
        b = plain.advance(list(added), remove)
        assert not b.plan_cache_hit
        assert a.outputs == b.outputs
        assert a.report.work == b.report.work
        assert (
            a.plan.structural_signature() == b.plan.structural_signature()
        )
    # verify_outputs raises on divergence and returns the number of keys
    # checked — which is legitimately 0 when the motion emptied the window.
    assert cached.verify_outputs() == plain.verify_outputs()
