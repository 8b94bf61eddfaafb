"""The execution-backend seam: dispatch ladder, fallback, certification tie."""

import multiprocessing
import os
import signal

import pytest

from repro.core import parallel
from repro.core.backends import (
    CERTIFIED_PARALLEL_VARIANTS,
    EXECUTION_BACKENDS,
    InProcessBackend,
    ProcessBackend,
    make_backend,
    parent_share,
)
from repro.core.memo import DictMemoStore, MemoStats
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.oracle.fleet import Fleet, case_of, count, count_job, split_of

TWINS = ("reference", "process")


def _job(num_reducers=2):
    return count_job("backend-test", num_reducers)


def _split(i):
    return split_of(i, spread=9, n=12)


def _slider(job=None, **config_kw):
    config_kw.setdefault("mode", WindowMode.VARIABLE)
    config_kw.setdefault("execution_backend", "process")
    config_kw.setdefault("workers", 2)
    return Slider(
        job or _job(), config_kw["mode"], config=SliderConfig(**config_kw)
    )


def _warm(slider, advances=12):
    """Initial run plus steady advances: the folding tree's structural
    period over six splits is eight, so the ninth advance on dispatches."""
    slider.initial_run([_split(i) for i in range(6)])
    for i in range(advances):
        slider.advance([_split(20 + i)], 1)
    return slider


class TestMakeBackend:
    def test_names(self):
        assert isinstance(make_backend("inprocess", 4), InProcessBackend)
        backend = make_backend("process", 4)
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 4
        backend.close()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_backend("threads", 2)
        assert set(EXECUTION_BACKENDS) == {"inprocess", "process"}

    def test_config_validates_backend_and_workers(self):
        with pytest.raises(ValueError):
            SliderConfig(execution_backend="gpu")
        with pytest.raises(ValueError):
            SliderConfig(execution_backend="process", workers=0)


class TestCertificationTie:
    def test_frozen_allowlist_matches_analysis_layer(self):
        from repro.analysis.shared import CERTIFIED_VARIANTS

        assert CERTIFIED_PARALLEL_VARIANTS is CERTIFIED_VARIANTS

    def test_every_allowlisted_variant_still_certifies_green(self):
        from repro.analysis.shared import certify_all

        certificates = certify_all(advances=2)
        verdicts = {
            (c.variant, c.mode): c.verdict for c in certificates
        }
        for pair in CERTIFIED_PARALLEL_VARIANTS:
            assert verdicts[pair] == "parallel-safe", pair


class TestDispatchLadder:
    def test_dispatches_on_certified_replayed_runs(self):
        slider = _warm(_slider())
        try:
            counters = slider.telemetry.counters
            assert counters.get("backend.dispatched_reducers", 0) > 0
            assert counters.get("backend.dispatch_runs", 0) > 0
        finally:
            slider.close()

    def test_non_numeric_combiner_dispatches(self):
        """Dispatch needs an associative combiner and a certificate, not a
        numeric value type: knn (``KSmallestCombiner``) crosses the seam
        and stays bit-identical to its in-process twin."""
        from repro.apps.registry import APP_REGISTRY

        spec = APP_REGISTRY["knn"]
        splits = spec.make_splits(48, 7, 0)
        job = (spec.make_job, lambda i: splits[i])
        with Fleet(case_of("folding"), job=job, arms=TWINS, first=6) as fleet:
            fleet.steady(20)
            fleet.check()
            counters = fleet.engines["process"].telemetry.counters
            assert not [name for name in counters if name.endswith("_fallbacks")]

    def test_fresh_plans_stay_inprocess(self):
        # The first structural period: no advance starts from a state the
        # engine has been in, so every run stays local.
        slider = _warm(_slider(), advances=8)
        try:
            counters = slider.telemetry.counters
            assert counters.get("backend.dispatched_reducers", 0) == 0
            assert counters["backend.inprocess_runs"] == 8
            assert slider.plan_cache.stats.misses == 8
            slider.advance([_split(40)], 1)
            assert counters["backend.dispatch_runs"] == 1
        finally:
            slider.close()

    def test_uncertified_variant_stays_inprocess(self):
        # rotating/variable holds no certificate (only rotating/fixed does).
        assert ("rotating", "variable") not in CERTIFIED_PARALLEL_VARIANTS
        slider = _warm(_slider(tree="rotating"), advances=4)
        try:
            assert (
                slider.telemetry.counters.get("backend.dispatched_reducers", 0)
                == 0
            )
        finally:
            slider.close()

    def test_cluster_runs_stay_inprocess_with_local_stores(self):
        from repro.cluster.machine import Cluster, ClusterConfig

        slider = Slider(
            _job(),
            WindowMode.VARIABLE,
            config=SliderConfig(
                mode=WindowMode.VARIABLE,
                execution_backend="process",
                workers=2,
            ),
            cluster=Cluster(ClusterConfig(num_machines=4)),
        )
        try:
            # Every tree's memo table sits on a process-local dict store.
            for tree in slider.trees:
                assert isinstance(tree.memo.entries, DictMemoStore)
            _warm(slider, advances=4)
            assert (
                slider.telemetry.counters.get("backend.dispatched_reducers", 0)
                == 0
            )
        finally:
            slider.close()

    def test_broken_pool_degrades_to_inprocess_forever(self):
        slider = _warm(_slider(), advances=4)
        try:
            backend = slider.backend
            assert isinstance(backend, ProcessBackend)
            before = dict(slider.telemetry.counters)
            backend.broken = True  # as a worker failure would set it
            r = slider.advance([_split(90)], 1)
            assert r.outputs  # still correct
            after = slider.telemetry.counters
            assert after.get("backend.dispatched_reducers", 0) == before.get(
                "backend.dispatched_reducers", 0
            )
            assert after.get("backend.inprocess_runs", 0) > before.get(
                "backend.inprocess_runs", 0
            )
        finally:
            slider.close()

    def test_worker_death_falls_back_with_correct_outputs(self):
        with Fleet(case_of("folding"), arms=TWINS) as fleet:
            fleet.steady(2)
            assert fleet.kill_worker(hard=True)
            backend = fleet.engines["process"].backend
            # The reply that never came was not merged: the reducers it
            # was for hold nothing, and the parent's trees were complete
            # all along, so later advances keep working, permanently
            # local and bit for bit.
            assert backend.broken and not backend._synced
            fleet.steady(20)
            fleet.check()

    def test_close_reaps_a_worker_that_ignores_shutdown(self, monkeypatch):
        """A worker deaf to the shutdown message and to SIGTERM is killed
        and waited for: ``close()`` leaves no child running or zombie."""
        serve = parallel._worker_main

        def stubborn(conn):
            # Runs in the forked child only: it serves payloads as usual
            # but no longer recognises the parent's shutdown message.
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            parallel._SHUTDOWN = b"\x00not the sentinel"
            serve(conn)

        monkeypatch.setattr(parallel, "_worker_main", stubborn)
        slider = _warm(_slider(workers=1), advances=10)
        try:
            assert (
                slider.telemetry.counters.get("backend.dispatched_reducers", 0)
                > 0
            )
            pids = [proc.pid for proc in slider.backend._pool.procs]
            assert pids
        finally:
            slider.close()
        for pid in pids:
            # Reaped: the pid is no longer a child of this process at all.
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


#: hct, four reducers, a window of 40 and 120 one-split advances:
#: (variant, mode) -> (runs in process, runs dispatched).  The first
#: column is the variant's structural period (``None`` key: all of them).
DISPATCH_DECISIONS = {
    ("folding", WindowMode.VARIABLE): (64, 56),
    ("rotating", WindowMode.FIXED): (40, 80),
    ("coalescing", WindowMode.APPEND): (1, 119),
    ("randomized", WindowMode.VARIABLE): (120, 0),
    ("strawman", WindowMode.VARIABLE): (120, 0),
}


def _hct_stream(variant, mode, **config_kw):
    """The engine after the 120 advances, and each advance's result."""
    from repro.apps.registry import APP_REGISTRY

    spec = APP_REGISTRY["hct"]
    splits = spec.make_splits(160, 7, 0)
    slider = _slider(spec.make_job(), mode=mode, tree=variant, **config_kw)
    slider.initial_run(splits[:40])
    removed = 0 if mode is WindowMode.APPEND else 1
    return slider, [slider.advance([split], removed) for split in splits[40:]]


class TestParentShare:
    @pytest.mark.parametrize(
        "reducers,workers,share",
        [(4, 2, 2), (2, 2, 1), (2, 1, 1), (3, 1, 2), (8, 3, 2), (1, 1, 0), (1, 4, 0)],
    )
    def test_the_parent_keeps_the_lowest_reducers_but_never_all(
        self, reducers, workers, share
    ):
        assert parent_share(reducers, workers) == share

    @pytest.mark.parametrize("reducers,forked", [(2, 1), (4, 2)])
    def test_the_pool_forks_only_the_workers_that_get_a_reducer(
        self, reducers, forked
    ):
        slider = _warm(_slider(_job(reducers), workers=2))
        try:
            counters = slider.telemetry.counters
            runs = counters["backend.dispatch_runs"]
            assert runs > 0
            assert counters["backend.dispatched_reducers"] == (reducers // 2) * runs
            assert len(slider.backend._pool) == forked
        finally:
            slider.close()


class TestWorkerPool:
    def test_a_failed_start_shuts_down_the_workers_already_started(
        self, monkeypatch
    ):
        """Fork fails for the second worker: the first, which holds the
        parent's end of its own pipe from the fork and so would never see
        EOF, is shut down before the error propagates."""
        fork = multiprocessing.get_context("fork")
        started = []

        class SecondStartFails(fork.Process):
            def start(self):
                started.append(self)
                if len(started) == 2:
                    raise OSError("fork: resource temporarily unavailable")
                super().start()

        class Context:
            Pipe = staticmethod(fork.Pipe)
            Process = SecondStartFails

        monkeypatch.setattr(parallel, "get_context", lambda method: Context)
        with pytest.raises(OSError, match="fork"):
            parallel.WorkerPool(2)
        assert [proc.name for proc in started] == ["repro-worker-0", "repro-worker-1"]
        assert started[0] not in multiprocessing.active_children()


class TestDispatchDecisions:
    @pytest.mark.parametrize("variant,mode", DISPATCH_DECISIONS)
    def test_which_advances_dispatch_and_what_the_memo_holds(self, variant, mode):
        slider, _ = _hct_stream(variant, mode)
        try:
            counters = slider.telemetry.counters
            local, dispatched = DISPATCH_DECISIONS[variant, mode]
            assert counters.get("backend.inprocess_runs", 0) == local
            assert counters.get("backend.dispatch_runs", 0) == dispatched
            # The parent advances reducers 0 and 1 itself (four reducers,
            # two workers): two a run cross the seam.
            assert counters.get("backend.dispatched_reducers", 0) == 2 * dispatched
            assert not [name for name in counters if name.endswith("_fallbacks")]
            if dispatched:
                # Node results live by position in the state that crosses:
                # a dispatched run leaves the memo table as it found it.
                for tree in slider.trees:
                    assert len(tree.memo.entries) == 0
                    assert tree.memo.stats == MemoStats()
        finally:
            slider.close()

    def test_the_memoizing_variant_runs_as_its_inprocess_twin(self):
        """The randomized tree is the one variant that reads and writes
        its memo table, and it never dispatches: under the process
        backend its tables sit on the same store and see the same
        traffic as in process (the fleet holds their stats equal)."""
        from repro.apps.registry import APP_REGISTRY

        spec = APP_REGISTRY["hct"]
        splits = spec.make_splits(160, 7, 0)
        job = (spec.make_job, lambda i: splits[i])
        with Fleet(case_of("randomized"), job=job, arms=TWINS, first=12) as fleet:
            fleet.steady(148)
            fleet.check()
            proc, twin = (fleet.engines[arm] for arm in reversed(TWINS))
            for a, b in zip(proc.trees, twin.trees, strict=True):
                assert type(a.memo.entries) is DictMemoStore
                assert list(a.memo.entries) == list(b.memo.entries)
                assert a.memo.stats.hits > 300 and a.memo.stats.misses > 300


class TestUnpicklableFallback:
    def test_unpicklable_payload_falls_back_per_reducer(self):
        """One tree's state holds an unpicklable object: its reducer runs
        in process while the rest still dispatch (four reducers: the
        parent keeps two, and the last one's payload fails)."""
        job = (lambda: count_job(num_reducers=4), split_of)
        with Fleet(case_of("folding"), job=job, arms=TWINS) as fleet:
            fleet.steady(2)
            engine = fleet.engines["process"]
            before = count(engine, "backend.dispatched_reducers")
            assert fleet.unpicklable()
            assert count(engine, "backend.unpicklable_fallbacks") == 1
            assert count(engine, "backend.dispatched_reducers") > before
            fleet.steady(2)
            fleet.check()
