"""The oracle's fleet: engines that differ in one thing, driven in lockstep.

Slider's one promise is that an incremental run's output *is* the
from-scratch run's output, whatever the tree, the window motion or the
failures in between — and this repo's second, that no execution
configuration changes a number.  A :class:`Fleet` holds a reference engine
(in process, default configuration) and one engine for each :data:`ARMS`
entry, each differing from the reference in exactly one dimension; every
rule (a method here) pushes the same motion through all of them, and
:meth:`Fleet.check` holds them to each other and to a from-scratch
:class:`~repro.mapreduce.runtime.BatchRuntime` run after it.

This module also holds the only case table, the only split generator and
the field readers under ``tests/``; everything else imports them.
``test_machine.py`` draws rule sequences with hypothesis, ``test_walk.py``
scripts one long sequence, and the suites that pin one behaviour each
script a short one.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import shutil
import signal
import tempfile
import threading
from collections import Counter
from contextlib import ExitStack, contextmanager
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterator

import pytest

from repro.apps.registry import APP_REGISTRY
from repro.cluster.chaos import ChaosPlan, ChaosSchedule, CorruptionEvent
from repro.cluster.machine import Cluster, ClusterConfig
from repro.common.approx import same_value
from repro.common.hashing import stable_hash
from repro.core import backends, parallel
from repro.core.backends import ProcessBackend
from repro.core.partition import Partition
from repro.core.plan import Plan, PlanStep
from repro.core.taskgraph import STEP, TaskGraph, TaskNode
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import BatchRuntime
from repro.mapreduce.types import Split
from repro.recovery.state import (
    apply_engine_state,
    apply_telemetry,
    capture_engine_state,
    capture_telemetry,
)
from repro.slider.system import Slider, SliderConfig, SliderResult
from repro.slider.window import WindowMode
from repro.telemetry import NullTelemetry, Telemetry

#: (variant, its window mode, split_mode)
CASES = (
    ("folding", WindowMode.VARIABLE, False),
    ("randomized", WindowMode.VARIABLE, False),
    ("strawman", WindowMode.VARIABLE, False),
    ("rotating", WindowMode.FIXED, False),
    ("rotating", WindowMode.FIXED, True),
    ("coalescing", WindowMode.APPEND, False),
    ("coalescing", WindowMode.APPEND, True),
)
#: The five (variant, mode) pairs, for suites that never set ``split_mode``.
VARIANTS = tuple((variant, mode) for variant, mode, split in CASES if not split)
#: The variants that key their plans, so that their steady advances
#: recur and a process backend dispatches them.
DISPATCHING = ("folding", "rotating", "coalescing")
ALL = -1  # "remove every split": the window-emptying eviction
#: A variable window is kept to this many splits, so that a folding
#: tree's structural state recurs within :data:`PERIOD` slides.
MAX_WINDOW = 12
PERIOD = 64


def case_of(variant: str, split_mode: bool = False) -> tuple:
    return next(c for c in CASES if c[0] == variant and c[2] == split_mode)


def split_of(i: int, spread: int = 12, n: int = 20) -> Split:
    """Split ``i`` of the one stream the suites share: ``n`` words out of
    ``spread``, so that every split meets every other in some key."""
    return Split.from_records(
        [f"w{(i * 7 + j) % spread}" for j in range(n)], label=f"s{i}"
    )


def count_job(name: str = "counts", num_reducers: int = 2) -> MapReduceJob:
    """Word count.  The name is a parameter because the simulated time
    models place reduce tasks by it, and goldens pin those floats."""
    return MapReduceJob(
        name=name,
        map_fn=lambda record: [(record, 1)],
        combiner=SumCombiner(),
        num_reducers=num_reducers,
    )


_POINTS: list[Split] = []


def _point_split(i: int) -> Split:
    if not _POINTS:
        _POINTS.extend(APP_REGISTRY["kmeans"].make_splits(48, 7, 0))
    return _POINTS[i % len(_POINTS)]


#: name -> (job factory, split ``i`` of its stream).  ``counts`` splits
#: hold between 3 and 9 keys, so that a miscounted partition shows;
#: ``scenario`` is the stream the goldens pin, every node of it a merge;
#: ``kmeans`` is the registry's job, whose combiner is not ``exact``.
JOBS: dict[str, tuple[Callable[[], MapReduceJob], Callable[[int], Split]]] = {
    "counts": (count_job, lambda i: split_of(i, spread=17, n=3 + i % 7)),
    "scenario": (count_job, split_of),
    "kmeans": (APP_REGISTRY["kmeans"].make_job, _point_split),
}


# -- readers ------------------------------------------------------------------


def plain_counters(engine: Slider, *but: str) -> dict:
    """An engine's telemetry counters minus the ``backend.*`` dispatch
    accounting (and any other prefix in ``but``), which legitimately
    differs between a backend that dispatches and one that cannot; the
    rest must match bit for bit."""
    skip = ("backend.",) + but
    return {
        name: value
        for name, value in engine.telemetry.counters.items()
        if not name.startswith(skip)
    }


_node_fields = attrgetter(*(spec.name for spec in dataclasses.fields(TaskNode)))
_step_fields = attrgetter(*(spec.name for spec in dataclasses.fields(PlanStep)))


def graph_fields(graph: TaskGraph) -> list[tuple]:
    """Every field of every node of a task graph, in order: uid, kind,
    phase, label, cost, data size, memo-hit, reducer, split uid, memo
    uid, deps.  Reading them builds the graph."""
    return [_node_fields(node) for node in graph.nodes]


def plan_fields(plan: Plan) -> list[tuple]:
    """The label, then every field of every step.  Reading builds."""
    return [plan.label] + [_step_fields(step) for step in plan.steps]


def assert_one_log(result: SliderResult) -> None:
    """The plan and the graph are views of one log: a record a node, plus
    a plan-only record for each ``reduce`` step that executed none."""
    log = result.plan.log
    assert result.graph.log is log
    heads = [record for record in log.records if record[0] is None]
    assert len(log.records) == len(result.graph.nodes) + len(heads)
    assert {record[STEP][0] for record in heads} <= {"reduce"}
    opened = [record for record in log.records if record[STEP] is not None]
    assert len(result.plan) == len(opened) == len(result.plan.steps)


def run_record(result: SliderResult) -> dict[str, Any]:
    """One run as ``golden_plan_equivalence.json`` records it (the seed
    code path wrote that file; nothing regenerates it)."""
    outputs = sorted((repr(k), repr(v)) for k, v in result.outputs.items())
    graph = result.graph
    return {
        "label": result.report.label,
        "work": result.report.work,
        "time": result.report.time,
        "space": result.report.space,
        "breakdown": dict(sorted(result.report.breakdown.items())),
        "outputs": f"{stable_hash(tuple(outputs), salt='equiv-out'):#x}",
        "changed_keys": len(result.changed_keys),
        "removed_keys": len(result.removed_keys),
        "graph_nodes": len(graph),
        "graph_kinds": dict(sorted(graph.counts_by_kind().items())),
    }


def tree_partitions(value: Any) -> list[Partition]:
    """Every partition in a tree's state (or any nest of containers),
    found without the seam's own walker."""
    if isinstance(value, Partition):
        return [value]
    if hasattr(value, "window_leaves"):  # a tree: what a payload carries
        value = list(value.state().values())
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [p for item in value for p in tree_partitions(item)]
    return []


def bits(value: Any) -> Any:
    """``value`` with every float as its hex string: equal means equal to
    the last bit, with ``0.0`` and ``-0.0`` apart."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    return value


def count(engine: Slider, name: str) -> float:
    return engine.telemetry.counters.get(name, 0)


@contextmanager
def counted_builds() -> Iterator[list[str]]:
    """The ``PlanStep`` / ``TaskNode`` constructions of this process, one
    entry each; in any other process (a forked worker) constructing one
    raises, which reaches the parent as ``backend.worker_fallbacks``."""
    made: list[str] = []
    home = os.getpid()
    with pytest.MonkeyPatch.context() as patch:
        for kind in (PlanStep, TaskNode):

            def counting(self, *args, _init=kind.__init__, _kind=kind, **kwargs):
                if os.getpid() != home:
                    raise AssertionError(f"a worker built a {_kind.__name__}")
                _init(self, *args, **kwargs)
                made.append(_kind.__name__)

            patch.setattr(kind, "__init__", counting)
        yield made


# -- arms ---------------------------------------------------------------------


def _space_is_recount(engine: Slider) -> None:
    engine.lifecycle.space = engine.lifecycle.recount


def _always_scans(engine: Slider) -> None:
    """The candidate source still runs (and counts a reason to scan, as
    the reference does), and always answers "scan every root key"."""
    candidates = engine.planner.reduce_candidates

    def scan(added: list, departed: list) -> None:
        candidates(added, departed)

    engine.planner.reduce_candidates = scan


def order_free_reduces(graph: list[tuple]) -> list[tuple]:
    """``graph`` with each reducer's run of ``reduce`` nodes as a multiset:
    sorted by label, their uids (positions in the run) dropped.  Nothing
    depends on a ``reduce`` node, so every other node keeps its fields."""
    keyed, run = [], 0
    for index, node in enumerate(graph):
        if node[1] == "reduce":
            keyed.append(((run, node[3]), node[1:]))
        else:
            run = index + 1
            keyed.append(((index, ""), node))
    return [node for _, node in sorted(keyed, key=lambda pair: pair[0])]


@dataclasses.dataclass(frozen=True)
class Arm:
    """One way an engine differs from the reference."""

    #: ``SliderConfig`` fields set otherwise.
    config: dict = dataclasses.field(default_factory=dict)
    #: Further ``Slider(...)`` arguments, made anew for each engine.
    extras: Callable[[], dict] = dict
    #: Applied to the engine when it is built, and again when restored.
    adopt: Callable[[Slider], None] = lambda engine: None
    #: Checkpointed, discarded and restored before every rule: each
    #: boundary of every walk is a kill point.
    restore_first: bool = False
    #: What may differ from the reference: result / report field names,
    #: counter-name prefixes, and ``cost`` (a graph node's cost, a work
    #: delta a worker takes from a recorder that starts at zero, is then
    #: held to 1e-9 instead of to the bit), and ``reduce_order`` (one
    #: reducer's ``reduce`` nodes are then compared as a multiset).
    differs: tuple[str, ...] = ()


#: What no checkpoint carries: the set of structural states seen, and
#: the order in which the work cursor's float was summed.
RESTORED = ("plan_cache.", "plan_cache_hit", "now")
#: What a machine's lost memory may cost: a result that was never
#: replicated is computed again.  Outputs and plans stay equal.
LOST_MEMORY = ("work", "breakdown", "space", "graph", "memo.", "new_map_tasks")

#: To add an arm, add a line.  The reference is in process whatever the
#: environment says, and so is every arm but ``process``: an arm differs
#: from the reference in one thing.
ARMS: dict[str, Arm] = {
    "reference": Arm(),
    "kept": Arm(extras=lambda: {"telemetry": Telemetry(label="kept")}),
    # The seed's flat accumulator: no spans, and no counter at all.
    "null": Arm(
        extras=lambda: {"telemetry": NullTelemetry(label="off")}, differs=("",)
    ),
    "paranoid": Arm(config={"memo_verify": "paranoid"}),
    "recount": Arm(adopt=_space_is_recount),
    # Reduce visits every root key, not the keys the slide's leaves carry.
    "rescan": Arm(adopt=_always_scans, differs=("reduce_order",)),
    "cluster": Arm(
        extras=lambda: {
            "cluster": Cluster(ClusterConfig(num_machines=4, straggler_fraction=0.0))
        },
        differs=("time", "recovery", "cache.", "storage.", "executor."),
    ),
    "restored": Arm(restore_first=True, differs=RESTORED),
    "process": Arm(
        config={"execution_backend": "process", "workers": 2}, differs=("cost",)
    ),
}

_REPORT = ("label", "work", "time", "space", "breakdown", "recovery")
_RESULT = (
    "outputs", "run_index", "reused_map_tasks", "new_map_tasks", "changed_keys",
    "removed_keys", "plan_cache_hit", "dead_letters",
)


class Fleet:
    """A reference engine and its arms over one case, in lockstep.

    Every public method but :meth:`check`, :meth:`read_late` and
    :meth:`close` is a rule.  The reference's graphs and plans are read
    only by :meth:`read_late`; every other arm's after each run.
    """

    def __init__(
        self,
        case: tuple,
        job: str | tuple = "counts",
        arms: tuple[str, ...] = tuple(ARMS),
        first: int = 5,
        common: Callable[[], dict] = dict,
        **config: Any,
    ) -> None:
        """``job`` names a :data:`JOBS` entry (or is one); ``common`` makes
        ``Slider(...)`` arguments every arm gets (a cluster, a chaos
        plan), ``config`` the ``SliderConfig`` fields every arm gets."""
        self.variant, self.mode, split_mode = self.case = case
        make_job, self.split = JOBS[job] if isinstance(job, str) else job
        self.job = make_job()
        self.config = SliderConfig(
            mode=self.mode,
            tree=self.variant,
            split_mode=split_mode,
            **{"execution_backend": "inprocess", **config},
        )
        self._stack = ExitStack()
        self.built = self._stack.enter_context(counted_builds())
        self.dir = Path(tempfile.mkdtemp(prefix="oracle-"))
        self._stack.callback(shutil.rmtree, self.dir, ignore_errors=True)
        self.differs = {name: set(ARMS[name].differs) for name in arms}
        self.engines: dict[str, Slider] = {}
        for name in arms:
            arm = ARMS[name]
            engine = self.engines[name] = Slider(
                self.job,
                self.mode,
                dataclasses.replace(self.config, **arm.config),
                **{**common(), **arm.extras()},
            )
            self._stack.callback(lambda name=name: self.engines[name].close())
            arm.adopt(engine)
        self.next_split = self.kills = 0
        #: The newest split dropped from the window so far.
        self.gone: Split | None = None
        #: rule -> times fired; node kinds and plan ops ever compared;
        #: counters and instants any arm was ever seen with.
        self.fired: Counter[str] = Counter()
        self.kinds: set[str] = set()
        self.ops: set[str] = set()
        self.signals: set[str] = set()
        #: (a reference result, the arm it is compared with when read,
        #: that arm's graph and plan fields as its run finished)
        self.late: list[tuple[SliderResult, str, list, list]] = []
        #: ``backend.worker_fallbacks`` the rules so far account for.
        self.fallbacks = 0
        #: Memo reads the cluster arm's backing served in corrupt rules,
        #: where the reference recomputed.
        self.replica_reads = 0
        #: A fault rule is in flight: the process arm may fail a dispatch.
        self.sabotaged = False
        self.collected = self.config.auto_gc
        try:
            self._run(lambda e, added: e.initial_run(added), first, 0)
        except BaseException:
            self._stack.close()
            raise

    @property
    def reference(self) -> Slider:
        return self.engines["reference"]

    def close(self) -> None:
        try:
            self.read_late()
        finally:
            self._stack.close()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, kind, *exc) -> None:
        if kind is None:
            self.close()
        else:
            self._stack.close()

    # -- driving --------------------------------------------------------------

    def _restore_first(self) -> None:
        for name in self.engines:
            if ARMS[name].restore_first:
                self._kill(name)

    def _each(self, operation: Callable[[Slider], Any]) -> dict[str, Any]:
        """``operation`` on every arm, none of which builds a step or a
        node for it; what it returns is equal to the bit across arms."""
        self._restore_first()
        built = len(self.built)
        got = {name: operation(e) for name, e in self.engines.items()}
        assert len(self.built) == built, "a rule built a PlanStep or a TaskNode"
        first = next(iter(got.values()))
        if not isinstance(first, SliderResult):
            assert all(bits(value) == bits(first) for value in got.values()), got
        return got

    def _run(
        self, operation, add: int, remove: int, repeat: bool = False, back: bool = False
    ) -> dict:
        """One run of every arm over the same motion, compared."""
        window = self.reference.window
        added = [self.split(self.next_split + i) for i in range(add)]
        self.next_split += add
        if back and added and self.gone is not None:
            added[-1] = self.gone  # a split that left comes back
        if repeat and added and len(window) > remove:
            added[0] = window.splits[-1]  # the same split appended twice
        if remove:
            self.gone = window.splits[remove - 1]
        process = self.engines.get("process")
        live = self._live_backend() is not None
        before = count(process, "backend.dispatch_runs") if live else 0
        results = self._each(lambda e: operation(e, list(added)))
        self._compare_runs(results)
        if live and not self.sabotaged:
            hit = results["process"].plan_cache_hit
            assert count(process, "backend.dispatch_runs") - before == hit, (
                "the process arm dispatches exactly its recurring runs"
            )
            if hit:
                self._held_is_the_tree(process)
        return results

    def _compare_runs(self, results: dict[str, SliderResult]) -> None:
        ref = results["reference"]
        base = None
        for name, got in results.items():
            differs = self.differs[name] | self.differs["reference"]
            for field in _RESULT:
                if field not in differs:
                    assert getattr(got, field) == getattr(ref, field), (name, field)
            for field in _REPORT:
                if field not in differs:
                    assert bits(getattr(got.report, field)) == bits(
                        getattr(ref.report, field)
                    ), (name, field)
            assert len(got.plan) == len(ref.plan), name
            assert len(got.graph) == len(ref.graph) or "graph" in differs, name
            if name == "reference":
                continue
            graph, plan = graph_fields(got.graph), plan_fields(got.plan)
            if base is None:
                base = (name, graph, plan)
                self.kinds.update(node[1] for node in graph)
                self.ops.update(step[1] for step in plan[1:])
            else:
                assert plan == base[2], (name, "plan")
                if "graph" not in differs:
                    self._same_graph(graph, base[1], name, base[0])
        if base is not None:
            self.late.append((ref, *base))
            if len(self.late) > 256:
                self.read_late()

    def _same_graph(self, graph: list, other: list, name: str, other_name: str) -> None:
        differs = self.differs[name] | self.differs[other_name]
        if "reduce_order" in differs:
            graph, other = order_free_reduces(graph), order_free_reduces(other)
        if "cost" not in differs:
            assert graph == other, (name, "graph")
            assert bits([n[4] for n in graph]) == bits([n[4] for n in other]), name
            return
        for node, twin in zip(graph, other, strict=True):
            assert node[:4] + node[5:] == twin[:4] + twin[5:], (name, node, twin)
            assert node[4] == pytest.approx(twin[4], rel=1e-9), (name, node, twin)

    def read_late(self) -> None:
        """Only now is any graph or plan of the reference read: each is
        what the arm that read at once saw."""
        late, self.late = self.late, []
        for result, name, graph, plan in late:
            assert result.plan._steps == [] and len(result.plan) == len(plan) - 1
            assert result.graph._nodes == [] and len(result.graph) == len(graph)
            assert plan_fields(result.plan) == plan
            self._same_graph(graph_fields(result.graph), graph, "reference", name)
            assert len(result.graph.nodes) == len(result.graph) == len(graph)
            assert_one_log(result)

    def _held_is_the_tree(self, engine: Slider) -> None:
        """After a dispatch: each side's table is the tree's partitions."""
        backend, sizes = engine.backend, {}
        for reducer, tree in enumerate(engine.trees):
            uids = {p.uid for p in tree_partitions(tree)}
            assert set(backend._held[reducer]) == uids | {Partition.empty().uid}
        pool = backend._pool
        for worker in range(len(pool)):
            pool.submit(worker, parallel._HELD_SIZES)
            sizes.update(pool.receive(worker)[0])
        assert sizes == {r: len(t) for r, t in backend._held.items()}

    def check(self) -> None:
        """The invariants of an idle fleet."""
        ref = self.reference
        window = [split.uid for split in ref.window]
        expected = BatchRuntime(self.job).run(list(ref.window)).outputs
        outputs = ref.current_outputs()
        assert same_value(outputs, expected, exact=self.job.combiner.exact)
        for name, engine in self.engines.items():
            differs = tuple(self.differs[name] | self.differs["reference"])
            assert [split.uid for split in engine.window] == window, name
            assert engine.current_outputs() == outputs, name
            # What Reduce patches in place is what a scan would rebuild.
            assert engine.reduce_outputs == outputs, name
            assert engine.reduce_memo == ref.reduce_memo, name
            assert [set(memo) for memo in engine.reduce_memo] == [
                set(tree.root().keys()) for tree in engine.trees
            ], name
            if "work" not in differs:
                assert bits(list(engine.telemetry.by_phase.items())) == bits(
                    list(ref.telemetry.by_phase.items())
                ), name
                if "now" not in differs:  # the span clock: every charge, in order
                    clocks = engine.telemetry.now(), ref.telemetry.now()
                    assert clocks[0].hex() == clocks[1].hex(), name
            assert plain_counters(engine, *differs) == plain_counters(
                ref, *differs
            ), name
            assert engine.space() == engine.lifecycle.recount(), name
            assert engine.telemetry.unclosed_spans() == [], name
            if "space" not in differs:
                assert [(t.memo.stats, t.memo.space()) for t in engine.trees] == [
                    (t.memo.stats, t.memo.space()) for t in ref.trees
                ], name
            if self.collected:
                assert set(engine.map_memo) == set(window), name
            self.signals.update(engine.telemetry.counters)
            self.signals.update(event["name"] for event in engine.telemetry.instants)
        process = self.engines.get("process")
        if process is not None:
            assert count(process, "backend.worker_fallbacks") == self.fallbacks

    # -- rules: motion --------------------------------------------------------

    def _clamp(self, add: int, remove: int) -> tuple[int, int]:
        """The one place a drawn motion is fitted to the window mode."""
        size = len(self.reference.window)
        if self.mode is WindowMode.APPEND:
            return add, 0
        if self.mode is WindowMode.FIXED:
            return min(add, size), min(add, size)
        remove = size if remove == ALL else min(remove, size)
        return min(add, MAX_WINDOW - (size - remove)), remove

    def advance(
        self,
        add: int = 1,
        remove: int = 1,
        repeat: bool = False,
        back: bool = False,
        starved: bool = False,
    ) -> dict:
        """0-3 splits in, 0-3 or all out; the first a ``repeat`` of the
        window's newest, the last one that had left coming ``back``;
        ``starved``, with no memo budget left (stores are skipped)."""
        self.fired["starved" if starved else "advance"] += 1
        add, remove = self._clamp(add, remove)

        def operation(engine: Slider, added: list[Split]) -> SliderResult:
            for tree in engine.trees if starved else ():
                tree.memo.capacity = len(tree.memo.entries)
            try:
                return engine.advance(added, remove)
            finally:
                for tree in engine.trees:
                    tree.memo.capacity = self.config.memo_budget

        results = self._run(operation, add, remove, repeat, back)
        self.collected = self.config.auto_gc
        return results

    def _until(
        self, done: Callable[[dict], bool], what: str, cap: int = 2 * PERIOD
    ) -> None:
        """One in, one out, until ``done(results)``."""
        for _ in range(cap):
            if done(self.advance()):
                return
        raise AssertionError(f"{cap} uniform advances and still no {what}")

    def steady(self, n: int = 1) -> None:
        """Uniform advances until ``n`` of them started from a structural
        state the engine had been in (just ``n``, for the variants that
        never key one) — each of which the process arm, if it is live,
        dispatched: the fleet cannot pass without crossing the seam."""
        self.fired["steady"] += 1
        if self.variant not in DISPATCHING:
            for _ in range(n):
                self.advance()
            return
        watched = "process" if self._live_backend() else "reference"
        before = count(self.engines[watched], "backend.dispatch_runs")
        hits = 0

        def recurred(results: dict) -> bool:
            nonlocal hits
            hits += results[watched].plan_cache_hit
            return hits >= n

        self._until(recurred, "recurring state", cap=2 * PERIOD + n)
        if watched == "process":
            assert count(self.engines[watched], "backend.dispatch_runs") >= before + n

    def background(self) -> None:
        self.fired["background"] += 1
        self._each(lambda e: e.background_preprocess())

    def collect(self) -> None:
        self.fired["collect"] += 1
        self._each(lambda e: e.collect_garbage())
        self.collected = True

    def forget_row(self) -> bool:
        """The oldest split's map output is gone when the split leaves (no
        engine path drops one: by hand), so that slide's Reduce scans."""
        window = self.reference.window
        # A split in the window twice keeps its row for the copy that stays.
        if self.mode is WindowMode.APPEND or not len(window):
            return False
        if window.counts[window.splits[0].uid] > 1:
            return False
        self.fired["forget_row"] += 1

        def operation(engine: Slider, added: list[Split]) -> SliderResult:
            row = engine.map_memo.pop(engine.window.splits[0].uid, None)
            engine.map_keys -= sum(len(p) for p in row or ())
            return engine.advance(added, 1)

        self._run(operation, 1, 1)
        self.collected = self.config.auto_gc
        return True

    # -- rules: lives ---------------------------------------------------------

    def _kill(self, name: str) -> None:
        path = self.dir / f"{name}-{self.kills}"
        self.kills += 1
        self.engines[name].checkpoint(path)
        self.engines[name].close()
        engine = self.engines[name] = Slider.restore(path, self.job)
        shutil.rmtree(path)
        ARMS[name].adopt(engine)
        self.differs[name].update(RESTORED)

    def kill(self, name: str) -> None:
        """Checkpoint, discard, restore, continue."""
        self.fired["kill"] += 1
        self._kill(name)

    def move(self) -> None:
        """The process arm's state moves onto an engine of the other
        backend, through plain data and no disk."""
        self.fired["move"] += 1
        old = self.engines["process"]
        to = "inprocess" if isinstance(old.backend, ProcessBackend) else "process"
        engine = Slider(
            self.job,
            self.mode,
            dataclasses.replace(old.config, execution_backend=to),
        )
        # Pickled, as a checkpoint segment is: a captured state shares its
        # containers with the engine it was taken from.
        captured = capture_engine_state(old), capture_telemetry(old.telemetry)
        engine_state, telemetry_state = pickle.loads(pickle.dumps(captured))
        apply_engine_state(engine, engine_state)
        apply_telemetry(engine.telemetry, telemetry_state)
        old.close()
        self.engines["process"] = engine
        self.differs["process"].update(RESTORED)

    def interlude(self) -> None:
        """Every arm forgets the states it has seen: the next advances
        run in process, between two dispatched stretches."""
        self.fired["interlude"] += 1
        for engine in self.engines.values():
            engine.plan_cache.clear()

    # -- rules: faults --------------------------------------------------------

    def corrupt(self, seed: int = 1, victims: int = 2) -> None:
        """A chaos corruption run: stored copies are swapped for corrupt
        ones of the same uid at the start of one advance, and repaired.
        A memo table drops only its corrupt copy, so the cluster arm of a
        variant that memoizes reads the intact replica where the
        reference recomputes."""
        self.fired["corrupt"] += 1
        flips = [CorruptionEvent(count=victims)]
        schedule = ChaosSchedule(corruptions=flips, seed=seed)
        for engine in self.engines.values():
            engine.set_chaos(ChaosPlan(schedules={engine.run_index: schedule}))
        cluster = self.engines.get("cluster")
        memoizes = cluster is not None and any(t.memo.entries for t in cluster.trees)
        if memoizes:
            self.differs["cluster"].update(LOST_MEMORY)

        def extra_hits() -> float:
            """The cluster arm's memo hits beyond the reference's."""
            if not memoizes:
                return 0.0
            return count(cluster, "memo.hits") - count(self.reference, "memo.hits")

        before = extra_hits()
        self.advance()
        for engine in self.engines.values():
            engine.set_chaos(None)
        self.replica_reads += extra_hits() - before

    def _live_backend(self) -> "ProcessBackend | None":
        """The process arm's backend, while it may still dispatch."""
        process = self.engines.get("process")
        if process is None or self.variant not in DISPATCHING:
            return None
        backend = process.backend
        live = isinstance(backend, ProcessBackend) and not backend.broken
        return backend if live else None

    def _sabotaged_until(self, done: Callable[[dict], bool], what: str) -> None:
        """Uniform advances, one of whose dispatches a fault rule has
        arranged to go wrong, until ``done``."""
        self.sabotaged = True
        try:
            self._until(done, what)
        finally:
            self.sabotaged = False

    def _breaks(self, backend: ProcessBackend) -> None:
        self._sabotaged_until(lambda results: backend.broken, "failed dispatch")
        assert not backend._held

    def kill_worker(self, hard: bool = True) -> bool:
        """A worker dies (``hard``), or comes to hold nothing of what the
        parent believes it does.  The next dispatch that needs the worker
        fails: that reducer runs in process, and the arm stays in process
        from then on.  (A worker that lost its table is not needed by a
        dispatch that sends no reference — every partition of the tree
        was made in process since — and that dispatch puts the two sides
        back in step.)"""
        backend = self._live_backend()
        if backend is None or backend._pool is None or 0 not in backend._held:
            return False  # no pool yet, or nothing the parent believes held
        self.fired["kill_worker"] += 1
        pool = backend._pool
        if hard:
            os.kill(pool.procs[0].pid, signal.SIGKILL)
            pool.procs[0].join(timeout=5)
            self._breaks(backend)
            return True
        # A run that raises leaves its worker holding nothing.
        lost = {"reducer": 0, "coded": (({"_root": parallel.HeldPartition}, []), [7])}
        pool.submit(0, pickle.dumps(lost))
        with pytest.raises(RuntimeError, match="KeyError"):
            pool.receive(0)
        process = self.engines["process"]
        before = count(process, "backend.dispatch_runs")
        self._sabotaged_until(
            lambda results: count(process, "backend.dispatch_runs") > before,
            "dispatch",
        )
        if backend.broken:
            self.fallbacks += 1
            assert not backend._held
        return backend.broken

    def pool_failure(self) -> bool:
        """The worker pool cannot be started (``fork`` fails)."""
        backend = self._live_backend()
        if backend is None or backend._pool is not None:
            return False
        self.fired["pool_failure"] += 1

        def no_pool(size: int):
            raise OSError("fork: resource temporarily unavailable")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backends, "WorkerPool", no_pool)
            self._breaks(backend)
        return True

    def unpicklable(self) -> bool:
        """One reducer's payload does not pickle: it alone runs in
        process, in a run the others dispatch."""
        if self._live_backend() is None:
            return False
        self.fired["unpicklable"] += 1
        process = self.engines["process"]
        before = count(process, "backend.unpicklable_fallbacks")
        process.trees[0]._unpicklable_probe = threading.Lock()
        try:
            self._sabotaged_until(
                lambda _: count(process, "backend.unpicklable_fallbacks") > before,
                "unpicklable fallback",
            )
        finally:
            del process.trees[0].__dict__["_unpicklable_probe"]
        return True

    def fail_backing(self) -> bool:
        """The cluster arm's distributed cache refuses writes for one
        advance: its tables go local-only, and are re-armed by the next."""
        engine = self.engines.get("cluster")
        if engine is None:
            return False
        self.fired["fail_backing"] += 1

        def fail(uid, value):
            raise OSError("cache backend unavailable")

        self.differs["cluster"].add("memo.degraded")
        engine.cache.put = fail
        try:
            self.advance(2, 1)
        finally:
            del engine.cache.put
        return True

    def fail_machine(self, machine: int = 1) -> bool:
        """The cluster arm loses a machine's memory: its trees' tables
        are emptied and their reads fall back to a disk replica."""
        engine = self.engines.get("cluster")
        if engine is None:
            return False
        self.fired["fail_machine"] += 1
        self.differs["cluster"].update(LOST_MEMORY)
        engine.on_machine_failure(machine)
        return True
