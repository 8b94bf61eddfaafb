"""The execution-backend seam: dispatch ladder, fallback, certification tie."""

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
)
from repro.core.memo import DictMemoStore
from repro.core.poison import PoisonPolicy
from repro.core.sharedmem import SharedNamespace
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import Split
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from tests.conftest import plain_counters


def _job(num_reducers=2):
    return MapReduceJob(
        name="backend-test",
        map_fn=lambda record: [(record, 1)],
        combiner=SumCombiner(),
        num_reducers=num_reducers,
    )


def _split(i):
    return Split.from_records([f"w{(i + j) % 9}" for j in range(12)], label=f"s{i}")


def _slider(job=None, **config_kw):
    config_kw.setdefault("mode", WindowMode.VARIABLE)
    config_kw.setdefault("execution_backend", "process")
    config_kw.setdefault("workers", 2)
    return Slider(
        job or _job(), config_kw["mode"], config=SliderConfig(**config_kw)
    )


def _warm(slider, advances=12):
    """Initial run plus enough steady advances to replay compiled plans."""
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

        assert CERTIFIED_PARALLEL_VARIANTS == frozenset(CERTIFIED_VARIANTS)

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
        splits = spec.make_splits(34, 7, 0)
        inproc = _slider(spec.make_job(), execution_backend="inprocess")
        proc = _slider(spec.make_job())
        try:
            for slider in (inproc, proc):
                slider.initial_run(splits[:6])
                for split in splits[6:14]:  # one structural period
                    slider.advance([split], 1)
            before = proc.telemetry.counters.get("backend.dispatch_runs", 0)
            for split in splits[14:]:
                a = inproc.advance([split], 1)
                b = proc.advance([split], 1)
                assert b.outputs == a.outputs
                assert b.report.work == a.report.work
                assert b.report.breakdown == a.report.breakdown
            counters = proc.telemetry.counters
            assert counters["backend.dispatch_runs"] - before == 20
            assert not [name for name in counters if name.endswith("_fallbacks")]
            left, right = inproc.meter.by_phase, proc.meter.by_phase
            assert {p: v.hex() for p, v in left.items()} == {
                p: v.hex() for p, v in right.items()
            }
        finally:
            inproc.close()
            proc.close()

    def test_fresh_plans_stay_inprocess(self):
        # Cache off -> no replay template -> every run falls back.
        slider = _warm(_slider(plan_cache=False), advances=4)
        try:
            counters = slider.telemetry.counters
            assert counters.get("backend.dispatched_reducers", 0) == 0
            assert counters.get("backend.inprocess_runs", 0) > 0
        finally:
            slider.close()

    def test_poison_policy_stays_inprocess(self):
        slider = _warm(
            _slider(poison_policy=PoisonPolicy(max_retries=1)), advances=4
        )
        try:
            assert (
                slider.telemetry.counters.get("backend.dispatched_reducers", 0)
                == 0
            )
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
            # The gate decides at tree construction: cluster trees get
            # process-local dict stores, not shared namespaces.
            for tree in slider.trees:
                assert isinstance(tree.memo.entries, DictMemoStore)
            _warm(slider, advances=4)
            assert (
                slider.telemetry.counters.get("backend.dispatched_reducers", 0)
                == 0
            )
        finally:
            slider.close()

    def test_clusterless_trees_run_over_shared_namespaces(self):
        slider = _slider()
        try:
            for tree in slider.trees:
                assert isinstance(tree.memo.entries, SharedNamespace)
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
        inproc = _warm(_slider(execution_backend="inprocess"), advances=10)
        proc = _warm(_slider(), advances=10)
        try:
            backend = proc.backend
            assert backend._pool is not None
            # Kill the pool's processes out from under the backend.
            for worker_proc in backend._pool.procs:
                worker_proc.terminate()
                worker_proc.join()
            a = proc.advance([_split(30)], 1)
            b = inproc.advance([_split(30)], 1)
            assert a.outputs == b.outputs
            assert proc.telemetry.counters.get(
                "backend.worker_fallbacks", 0
            ) + proc.telemetry.counters.get("backend.inprocess_runs", 0) > 0
            assert backend.broken
            # The reply that never came was not merged: the reducers it
            # was for hold nothing, and the parent's trees were complete
            # all along, so later advances keep working, permanently
            # local and bit for bit.
            assert not backend._held
            for i in range(20):
                c = proc.advance([_split(31 + i)], 1)
                d = inproc.advance([_split(31 + i)], 1)
                assert c.outputs == d.outputs
                assert c.report.work == d.report.work
            assert plain_counters(proc) == plain_counters(inproc)
        finally:
            proc.close()
            inproc.close()

    def test_close_reaps_a_worker_that_ignores_shutdown(self, monkeypatch):
        """A worker deaf to the shutdown message and to SIGTERM is killed
        and waited for: ``close()`` leaves no child running or zombie."""
        serve = parallel._worker_main

        def stubborn(conn, store):
            # Runs in the forked child only: it serves payloads as usual
            # but no longer recognises the parent's shutdown message.
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            parallel._SHUTDOWN = b"\x00not the sentinel"
            serve(conn, store)

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


class TestUnpicklableFallback:
    def test_unpicklable_payload_falls_back_per_reducer(self):
        lock_holder = []

        def map_fn(record):
            return [(record, 1)]

        slider = Slider(
            _job(),
            WindowMode.VARIABLE,
            config=SliderConfig(
                mode=WindowMode.VARIABLE,
                execution_backend="process",
                workers=2,
            ),
        )
        try:
            _warm(slider, advances=10)
            assert (
                slider.telemetry.counters.get("backend.dispatched_reducers", 0)
                > 0
            )
            # Poison one tree's state with an unpicklable object; its
            # reducer must fall back while the rest still dispatch.
            import threading

            slider.trees[0]._unpicklable_probe = threading.Lock()
            before = dict(slider.telemetry.counters)
            result = slider.advance([_split(60)], 1)
            after = slider.telemetry.counters
            assert result.outputs
            assert after.get("backend.unpicklable_fallbacks", 0) > before.get(
                "backend.unpicklable_fallbacks", 0
            )
            del slider.trees[0].__dict__["_unpicklable_probe"]
        finally:
            slider.close()
