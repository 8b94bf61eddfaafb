"""Data-flow query processing over sliding windows (§5).

A small Pig-Latin-like layer: logical plans built with
:class:`~repro.query.plan.Query` compile to a pipeline of MapReduce jobs
(:mod:`~repro.query.compiler`), which the multi-level incremental executor
(:mod:`~repro.query.pipeline`) runs over a sliding window — the first stage
with the mode-appropriate self-adjusting contraction tree, subsequent stages
with strawman contraction trees over content-bucketed intermediates, exactly
the strategy of §5.
"""

from repro.query.aggregates import Count, CountDistinct, Max, Mean, Min, SumField
from repro.query.compiler import QueryCompilationError, compile_plan
from repro.query.pigmix import PIGMIX_QUERIES, PigMixDataGenerator, pigmix_query
from repro.query.pipeline import BatchQueryRunner, IncrementalQueryPipeline
from repro.query.plan import Query

__all__ = [
    "Count",
    "CountDistinct",
    "Max",
    "Mean",
    "Min",
    "SumField",
    "QueryCompilationError",
    "compile_plan",
    "PIGMIX_QUERIES",
    "PigMixDataGenerator",
    "pigmix_query",
    "BatchQueryRunner",
    "IncrementalQueryPipeline",
    "Query",
]
