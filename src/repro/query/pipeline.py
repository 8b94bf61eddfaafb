"""Multi-level incremental execution of compiled query pipelines (§5).

The first stage consumes the sliding window directly, so it runs under a
full :class:`~repro.slider.system.Slider` with the mode-appropriate
self-adjusting contraction tree.  From the second stage onwards, input
changes can land at arbitrary positions (they are the diffs of the previous
stage's output), so each later stage runs under a *strawman* contraction
tree over content-bucketed pseudo-splits: unchanged buckets reuse their Map
outputs and positionally-memoized combiner nodes, changed buckets recompute
— exactly the paper's strategy for data-flow query processing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.common.hashing import stable_hash
from repro.core.execute import PlanExecutor
from repro.core.partition import Partition
from repro.core.strawman import StrawmanTree
from repro.mapreduce.runtime import BatchRuntime, reduce_partition
from repro.mapreduce.shuffle import HashPartitioner, run_map_task
from repro.mapreduce.types import Split
from repro.metrics import Phase, RunReport
from repro.query.compiler import CompiledPlan, CompiledStage, compile_plan
from repro.query.plan import Query, Row
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from repro.telemetry import ENGINE_KEEP_LAST, SpanKind, Telemetry


@dataclass
class QueryRunResult:
    """Final rows plus metrics of one pipeline run."""

    rows: list[Row]
    report: RunReport
    stage_works: list[float] = field(default_factory=list)


class StrawmanStageRunner:
    """Incremental executor for stages >= 2 of a pipeline.

    Buckets the stage's input rows by content hash into a fixed number of
    pseudo-splits.  A small diff in the rows changes few buckets; Map memo
    entries and the strawman tree's positional cache absorb the rest.
    """

    def __init__(self, stage: CompiledStage, num_buckets: int = 32) -> None:
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        self.stage = stage
        self.num_buckets = num_buckets
        #: The stage's own long-lived recorder (see
        #: :class:`IncrementalQueryPipeline`), shared by its trees.
        self.telemetry = Telemetry(label=f"stage{stage.index}")
        self.partitioner = HashPartitioner(stage.job.num_reducers)
        self._map_memo: dict[int, list[Partition]] = {}
        executor = PlanExecutor(self.telemetry)
        self.trees: list[StrawmanTree] = [
            StrawmanTree(
                stage.job.combiner,
                combine_cost_factor=stage.job.costs.combine_cost_factor,
                executor=executor,
            )
            for _ in range(stage.job.num_reducers)
        ]
        self._leaf_count = 0
        self._ran = False

    def run(self, rows: Sequence[Row]) -> tuple[dict[Any, Any], float]:
        """Execute the stage over the full current ``rows``; returns
        (outputs, work charged this run)."""
        before = self.telemetry.total()
        splits = self._bucketize(rows)
        per_reducer = self._run_maps(splits)

        outputs: dict[Any, Any] = {}
        for reducer_index, tree in enumerate(self.trees):
            leaves = per_reducer[reducer_index]
            if not self._ran:
                root = tree.initial_run(leaves)
            else:
                root = tree.advance(leaves, removed=self._leaf_count)
            outputs.update(reduce_partition(self.stage.job, root, self.telemetry))
        self._ran = True
        self._leaf_count = len(splits)
        self._collect_garbage(splits)
        return outputs, self.telemetry.total() - before

    def _bucketize(self, rows: Sequence[Row]) -> list[Split]:
        buckets: list[list[Row]] = [[] for _ in range(self.num_buckets)]
        for row in rows:
            buckets[stable_hash(row, salt="qbucket") % self.num_buckets].append(row)
        splits = []
        for index, bucket in enumerate(buckets):
            bucket.sort(key=lambda row: stable_hash(row, salt="qorder"))
            splits.append(
                Split.from_records(
                    bucket, label=f"s{self.stage.index}b{index}"
                )
            )
        return splits

    def _run_maps(  # analysis: charge-in-caller-span (stage span)
        self, splits: list[Split]
    ) -> list[list[Partition]]:
        per_reducer: list[list[Partition]] = [
            [] for _ in range(self.stage.job.num_reducers)
        ]
        for split in splits:
            cached = self._map_memo.get(split.uid)
            if cached is None:
                cached = run_map_task(
                    self.stage.job, split.records, self.partitioner, self.telemetry
                )
                self._map_memo[split.uid] = cached
            else:
                self.telemetry.charge(
                    Phase.MEMO_READ,
                    self.stage.job.costs.memo_read_cost_per_key
                    * max(1, len(split)),
                )
            for reducer_index, partition in enumerate(cached):
                per_reducer[reducer_index].append(partition)
        return per_reducer

    def _collect_garbage(self, live_splits: list[Split]) -> None:
        live = {split.uid for split in live_splits}
        for uid in [u for u in self._map_memo if u not in live]:
            del self._map_memo[uid]


class IncrementalQueryPipeline:
    """Slider-backed incremental executor for a whole compiled plan."""

    def __init__(
        self,
        plan: Query,
        mode: WindowMode = WindowMode.VARIABLE,
        slider_config: SliderConfig | None = None,
        num_buckets: int = 32,
        cluster=None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.plan = plan
        self.compiled: CompiledPlan = compile_plan(plan)
        first_job = self.compiled.stages[0].job
        self.mode = mode
        #: The shared backbone: stage 1 (the Slider) accounts directly into
        #: it, while later stages keep their own long-lived recorders — their
        #: memo state spans runs, so folding their charges into the shared
        #: root would reorder float additions.  Instead each stage run is
        #: summarised as a closed PHASE span on a pipeline clock lane.
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(
                label=f"query:{first_job.name}", keep_last=ENGINE_KEEP_LAST
            )
        )
        self.slider = Slider(
            first_job,
            mode=mode,
            config=slider_config,
            cluster=cluster,
            telemetry=self.telemetry,
        )
        self.later_stages = [
            StrawmanStageRunner(stage, num_buckets=num_buckets)
            for stage in self.compiled.stages[1:]
        ]
        #: Offset past the Slider's work cursor for later-stage span
        #: placement; accumulates so stage spans never overlap across runs.
        self._stage_clock = 0.0
        self._run_index = 0

    def initial_run(self, splits: Sequence[Split]) -> QueryRunResult:
        first = self.slider.initial_run(splits)
        return self._run_rest(first)

    def advance(self, added: Sequence[Split], removed: int) -> QueryRunResult:
        first = self.slider.advance(added, removed)
        return self._run_rest(first)

    def _run_rest(self, first_result) -> QueryRunResult:
        stage_works = [first_result.report.work]
        rows = self.compiled.stages[0].emit_rows(first_result.outputs)
        for runner, stage in zip(self.later_stages, self.compiled.stages[1:]):
            outputs, work = runner.run(rows)
            stage_works.append(work)
            start = self.telemetry.now() + self._stage_clock
            self.telemetry.record_span(
                f"stage{stage.index}",
                SpanKind.PHASE,
                start=start,
                end=start + work,
                thread="pipeline",
                stage=stage.index,
                run_index=self._run_index,
            )
            self._stage_clock += work
            rows = stage.emit_rows(outputs)
        rows = self.compiled.postprocess(rows)
        total_work = sum(stage_works)
        report = RunReport(
            label=f"query-run-{self._run_index}",
            work=total_work,
            # Pipelined jobs execute sequentially; without a per-stage
            # cluster replay we take stage works as stage times.
            time=first_result.report.time + sum(stage_works[1:]),
            space=self.slider.space(),
            breakdown={
                f"stage{i}": work for i, work in enumerate(stage_works)
            },
        )
        self._run_index += 1
        return QueryRunResult(rows=rows, report=report, stage_works=stage_works)


class BatchQueryRunner:
    """Recompute-from-scratch baseline for query pipelines."""

    def __init__(self, plan: Query) -> None:
        self.plan = plan
        self.compiled = compile_plan(plan)
        self._window: list[Split] = []
        self._run_index = 0

    def initial_run(self, splits: Sequence[Split]) -> QueryRunResult:
        self._window = list(splits)
        return self._run()

    def advance(self, added: Sequence[Split], removed: int) -> QueryRunResult:
        self._window = self._window[removed:] + list(added)
        return self._run()

    def _run(self) -> QueryRunResult:
        stage_works: list[float] = []
        rows: list[Row] | None = None
        for stage in self.compiled.stages:
            if rows is None:
                inputs = self._window
            else:
                inputs = [Split.from_records(rows, label=f"mid{stage.index}")]
            result = BatchRuntime(stage.job).run(inputs)
            stage_works.append(result.work)
            rows = stage.emit_rows(result.outputs)
        rows = self.compiled.postprocess(rows or [])
        total = sum(stage_works)
        report = RunReport(
            label=f"batch-query-run-{self._run_index}",
            work=total,
            time=total,
            breakdown={f"stage{i}": w for i, w in enumerate(stage_works)},
        )
        self._run_index += 1
        return QueryRunResult(rows=rows, report=report, stage_works=stage_works)
