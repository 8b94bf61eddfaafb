"""Unit tests for the query plan builder and compiler."""

import pytest

from repro.common.errors import QueryCompilationError
from repro.mapreduce.runtime import BatchRuntime
from repro.mapreduce.types import make_splits
from repro.query.aggregates import Count, CountDistinct, Max, Mean, Min, SumField
from repro.query.compiler import compile_plan
from repro.query.plan import Query

ROWS = [
    # (user, action, revenue)
    (1, "view", 2.0),
    (1, "click", 1.0),
    (2, "view", 4.0),
    (2, "view", 6.0),
    (3, "click", 1.5),
]

SCHEMA = ("user", "action", "revenue")


def run_single_stage(plan, rows=ROWS):
    compiled = compile_plan(plan)
    assert compiled.num_stages() == 1
    stage = compiled.stages[0]
    outputs = BatchRuntime(stage.job).run(make_splits(rows, 2)).outputs
    return outputs, stage


def test_group_by_count():
    outputs, _ = run_single_stage(
        Query.load(SCHEMA).group_by(lambda r: r[0], Count())
    )
    assert outputs == {1: 2, 2: 2, 3: 1}


def test_group_by_sum_field():
    outputs, _ = run_single_stage(
        Query.load(SCHEMA).group_by(lambda r: r[0], SumField(2))
    )
    assert outputs[2] == 10.0


def test_group_by_min_max_mean():
    outputs, _ = run_single_stage(
        Query.load(SCHEMA).group_by(
            lambda r: r[1], [Min(2), Max(2), Mean(2)]
        )
    )
    assert outputs["view"] == (2.0, 6.0, 4.0)
    assert outputs["click"] == (1.0, 1.5, 1.25)


def test_group_by_count_distinct():
    outputs, _ = run_single_stage(
        Query.load(SCHEMA).group_by(lambda r: r[1], CountDistinct(0))
    )
    assert outputs["view"] == 2
    assert outputs["click"] == 2


def test_filter_fuses_into_map():
    outputs, _ = run_single_stage(
        Query.load(SCHEMA)
        .filter(lambda r: r[1] == "view")
        .group_by(lambda r: r[0], Count())
    )
    assert outputs == {1: 1, 2: 2}


def test_foreach_transforms_rows():
    outputs, _ = run_single_stage(
        Query.load(SCHEMA)
        .foreach(lambda r: (r[0], r[2] * 2))
        .group_by(lambda r: r[0], SumField(1))
    )
    assert outputs[2] == 20.0


def test_join_inner_drops_unmatched():
    table = {1: "gold", 2: "silver"}
    outputs, _ = run_single_stage(
        Query.load(SCHEMA)
        .join(table, key_fn=lambda r: r[0])
        .group_by(lambda r: r[-1], Count())
    )
    assert outputs == {"gold": 2, "silver": 2}


def test_join_left_outer_keeps_unmatched():
    table = {1: "gold"}
    outputs, _ = run_single_stage(
        Query.load(SCHEMA)
        .join(table, key_fn=lambda r: r[0], keep_unmatched=True, default="none")
        .group_by(lambda r: r[-1], Count())
    )
    assert outputs == {"gold": 2, "none": 3}


def test_distinct_projects_keys():
    compiled = compile_plan(Query.load(SCHEMA).distinct(lambda r: r[1]))
    stage = compiled.stages[0]
    outputs = BatchRuntime(stage.job).run(make_splits(ROWS, 2)).outputs
    rows = stage.emit_rows(outputs)
    assert rows == [("click",), ("view",)]


def test_top_keeps_n_best():
    compiled = compile_plan(
        Query.load(SCHEMA).top(2, score_fn=lambda r: r[2])
    )
    stage = compiled.stages[0]
    outputs = BatchRuntime(stage.job).run(make_splits(ROWS, 2)).outputs
    rows = stage.emit_rows(outputs)
    assert rows == [(2, "view", 6.0), (2, "view", 4.0)]


def test_top_requires_positive_n():
    with pytest.raises(ValueError):
        Query.load(SCHEMA).top(0, score_fn=lambda r: r[2])


def test_multi_stage_plan_compiles_to_pipeline():
    plan = (
        Query.load(SCHEMA)
        .group_by(lambda r: r[0], SumField(2))
        .group_by(lambda r: int(r[1]), Count())
    )
    compiled = compile_plan(plan)
    assert compiled.num_stages() == 2
    assert plan.num_stages() == 2


def test_plan_without_boundary_rejected():
    with pytest.raises(QueryCompilationError):
        compile_plan(Query.load(SCHEMA).filter(lambda r: True))


def test_plan_must_start_with_load():
    with pytest.raises(QueryCompilationError):
        compile_plan(Query(ops=[]))


def test_trailing_row_ops_postprocess():
    plan = (
        Query.load(SCHEMA)
        .group_by(lambda r: r[0], Count())
        .filter(lambda r: r[1] >= 2)
    )
    compiled = compile_plan(plan)
    stage = compiled.stages[0]
    outputs = BatchRuntime(stage.job).run(make_splits(ROWS, 2)).outputs
    rows = compiled.postprocess(stage.emit_rows(outputs))
    assert rows == [(1, 2), (2, 2)]


def test_schema_accessor():
    assert Query.load(SCHEMA).schema == SCHEMA
    with pytest.raises(ValueError):
        Query(ops=[]).schema


def test_a_hand_built_plan_with_an_unknown_operator_is_rejected():
    from repro.query.plan import LoadOp

    with pytest.raises(QueryCompilationError, match="unknown operator"):
        compile_plan(Query(ops=[LoadOp(("a",)), LoadOp(("b",))]))


def test_an_empty_list_of_aggregations_is_rejected():
    with pytest.raises(ValueError, match="at least one part"):
        Query.load(("a",)).group_by(lambda row: row[0], [])


def test_a_multi_aggregation_combiner_passes_the_law_harness():
    from repro.analysis import check_combiner_laws
    from repro.query.aggregates import MultiAggregation

    combiner = MultiAggregation([Count(), Max(0)]).combiner()
    assert combiner.exact
    assert check_combiner_laws(combiner, max_examples=10) == []


def test_a_multi_aggregation_with_an_unknown_part_has_no_leaf_strategy():
    from repro.analysis import check_combiner_laws
    from repro.mapreduce.combiners import Combiner
    from repro.query.aggregates import Aggregation, MultiAggregation

    class FirstCombiner(Combiner):
        def merge(self, key, values):
            return values[0]

    class First(Aggregation):
        def initial(self, row):
            return row[0]

        def combiner(self):
            return FirstCombiner()

        def finalize(self, value):
            return value

    combiner = MultiAggregation([Count(), First()]).combiner()
    findings = check_combiner_laws(combiner, max_examples=10)
    assert {finding.rule for finding in findings} == {"laws.no-strategy"}
