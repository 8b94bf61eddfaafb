"""Compiles logical query plans into pipelines of MapReduce jobs.

Row-local operators (filter / join) fuse into the Map function of the next
stage; every grouping operator (group_by / top) closes a stage.  Trailing
row-local operators after the last boundary become a final local
post-processing function.

This mirrors how Pig compiles Pig-Latin scripts into pipelined MapReduce
jobs — the property §5 exploits to incrementalize query processing stage by
stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import QueryCompilationError
from repro.mapreduce.combiners import TopKCombiner
from repro.mapreduce.job import CostModel, MapReduceJob
from repro.query.plan import (
    BoundaryOp,
    FilterOp,
    GroupOp,
    JoinOp,
    LoadOp,
    Query,
    Row,
    RowOp,
    TopOp,
)

#: A single sentinel key for global (ungrouped) operators like TOP.
GLOBAL_KEY = "__global__"


@dataclass
class CompiledStage:
    """One MapReduce job plus how to turn its outputs into next-stage rows."""

    index: int
    job: MapReduceJob
    #: outputs dict -> list of rows for the next stage (or final results).
    emit_rows: Callable[[dict], list[Row]]


@dataclass
class CompiledPlan:
    stages: list[CompiledStage]
    #: applied to the last stage's rows (trailing filters / joins).
    postprocess: Callable[[list[Row]], list[Row]]

    def num_stages(self) -> int:
        return len(self.stages)


def _apply_row_ops(row: Row, ops: list[RowOp]):
    """Run row-local operators; yields zero or one row."""
    for op in ops:
        if isinstance(op, FilterOp):
            if not op.predicate(row):
                return
        else:  # a JoinOp: compile_plan admits no other row operator
            match = op.table.get(op.key_fn(row))
            if match is None:
                return
            row = tuple(row) + (match,)
    yield row


def _make_stage(index: int, row_ops: list[RowOp], boundary: BoundaryOp) -> CompiledStage:
    ops = list(row_ops)

    if isinstance(boundary, GroupOp):
        aggregation = boundary.aggregation
        key_fn = boundary.key_fn

        def map_group(record: Row):
            for row in _apply_row_ops(record, ops):
                yield (key_fn(row), aggregation.initial(row))

        job = MapReduceJob(
            name=f"stage{index}-group",
            map_fn=map_group,
            combiner=aggregation.combiner(),
            reduce_fn=lambda key, value: aggregation.finalize(value),
            num_reducers=4,
            costs=CostModel(map_cost_per_record=1.0),
        )

        def emit_group(outputs: dict) -> list[Row]:
            rows = []
            for key, value in outputs.items():
                if isinstance(value, tuple):
                    rows.append((key, *value))
                else:
                    rows.append((key, value))
            return sorted(rows, key=repr)

        return CompiledStage(index, job, emit_group)

    # A TopOp: compile_plan admits no other boundary operator.
    n, score_fn = boundary.n, boundary.score_fn

    def map_top(record: Row):
        for row in _apply_row_ops(record, ops):
            yield (GLOBAL_KEY, ((float(score_fn(row)), tuple(row)),))

    job = MapReduceJob(
        name=f"stage{index}-top",
        map_fn=map_top,
        combiner=TopKCombiner(k=n),
        reduce_fn=lambda key, value: value,
        num_reducers=1,
        costs=CostModel(map_cost_per_record=1.0),
    )

    def emit_top(outputs: dict) -> list[Row]:
        entries = outputs.get(GLOBAL_KEY, ())
        return [row for _score, row in entries]

    return CompiledStage(index, job, emit_top)


def compile_plan(plan: Query) -> CompiledPlan:
    """Compile a logical plan into a pipeline of MapReduce stages."""
    if not plan.ops or not isinstance(plan.ops[0], LoadOp):
        raise QueryCompilationError("plan must start with Query.load(...)")

    stages: list[CompiledStage] = []
    pending_row_ops: list[RowOp] = []
    for op in plan.ops[1:]:
        if isinstance(op, (FilterOp, JoinOp)):
            pending_row_ops.append(op)
        elif isinstance(op, (GroupOp, TopOp)):
            stages.append(_make_stage(len(stages), pending_row_ops, op))
            pending_row_ops = []
        else:
            raise QueryCompilationError(f"unknown operator {op!r}")

    if not stages:
        raise QueryCompilationError(
            "plan needs at least one grouping operator (group_by/top)"
        )

    trailing = list(pending_row_ops)

    def postprocess(rows: list[Row]) -> list[Row]:
        if not trailing:
            return rows
        out: list[Row] = []
        for row in rows:
            out.extend(_apply_row_ops(row, trailing))
        return out

    return CompiledPlan(stages=stages, postprocess=postprocess)
