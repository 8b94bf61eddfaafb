"""A Hadoop-like data-parallel substrate.

This package provides the non-incremental programming model that Slider
incrementalizes: jobs are expressed as a Map function, an associative
Combiner, and a Reduce function (§2).  The vanilla batch runtime here is the
"recompute from scratch" baseline of the evaluation.
"""

from repro.mapreduce.combiners import (
    Combiner,
    SumCombiner,
    CountCombiner,
    MinCombiner,
    MaxCombiner,
    MeanCombiner,
    TopKCombiner,
    KSmallestCombiner,
    SetUnionCombiner,
    ListConcatCombiner,
    VectorSumCombiner,
)
from repro.mapreduce.job import CostModel, MapReduceJob
from repro.mapreduce.runtime import BatchRuntime, JobResult
from repro.mapreduce.shuffle import HashPartitioner, shuffle_map_outputs
from repro.mapreduce.types import Record, Split, make_splits

__all__ = [
    "Combiner",
    "SumCombiner",
    "CountCombiner",
    "MinCombiner",
    "MaxCombiner",
    "MeanCombiner",
    "TopKCombiner",
    "KSmallestCombiner",
    "SetUnionCombiner",
    "ListConcatCombiner",
    "VectorSumCombiner",
    "MapReduceJob",
    "CostModel",
    "BatchRuntime",
    "JobResult",
    "HashPartitioner",
    "shuffle_map_outputs",
    "Record",
    "Split",
    "make_splits",
]
