"""repro — Slider: incremental sliding window analytics.

A from-scratch reproduction of *Slider* (Bhatotia, Acar, Junqueira,
Rodrigues — Middleware 2014): **self-adjusting contraction trees** that
transparently incrementalize sliding-window data-parallel computations,
together with the substrates the paper builds on — a Hadoop-like MapReduce
engine, a simulated cluster with memoization-aware scheduling and a
fault-tolerant distributed cache, and a Pig-like query compiler.

Quickstart::

    from repro import MapReduceJob, Slider, SumCombiner, WindowMode, make_splits

    job = MapReduceJob(
        name="wordcount",
        map_fn=lambda line: [(word, 1) for word in line.split()],
        combiner=SumCombiner(),
    )
    slider = Slider(job, mode=WindowMode.VARIABLE)
    result = slider.initial_run(make_splits(lines, split_size=100))
    result = slider.advance(added=new_splits, removed=2)   # incremental!
    print(result.outputs, result.report.work)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduction of every table and figure in the paper's evaluation.
"""

from repro.core import (
    CoalescingTree,
    ContractionTree,
    FoldingTree,
    Partition,
    RandomizedFoldingTree,
    RotatingTree,
    StrawmanTree,
)
from repro.mapreduce import (
    BatchRuntime,
    Combiner,
    CountCombiner,
    KSmallestCombiner,
    MapReduceJob,
    MaxCombiner,
    MeanCombiner,
    MinCombiner,
    SetUnionCombiner,
    Split,
    SumCombiner,
    TopKCombiner,
    VectorSumCombiner,
    make_splits,
)
from repro.metrics import Phase, RunReport, Speedup
from repro.slider import Slider, SliderConfig, SliderResult, VanillaRunner, WindowMode
from repro.telemetry import Telemetry

__version__ = "1.0.0"

#: Kept only because ``benchmarks/e2e/e2ebench/probes.py`` imports the old
#: name and passes one to ``run_map_task``: work is charged to a Telemetry.
WorkMeter = Telemetry

__all__ = [
    "CoalescingTree",
    "ContractionTree",
    "FoldingTree",
    "Partition",
    "RandomizedFoldingTree",
    "RotatingTree",
    "StrawmanTree",
    "BatchRuntime",
    "Combiner",
    "CountCombiner",
    "KSmallestCombiner",
    "MapReduceJob",
    "MaxCombiner",
    "MeanCombiner",
    "MinCombiner",
    "SetUnionCombiner",
    "Split",
    "SumCombiner",
    "TopKCombiner",
    "VectorSumCombiner",
    "make_splits",
    "Phase",
    "RunReport",
    "Speedup",
    "Slider",
    "SliderConfig",
    "SliderResult",
    "VanillaRunner",
    "WindowMode",
]
