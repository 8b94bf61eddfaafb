"""The vanilla batch runtime — the "recompute from scratch" baseline.

Runs a MapReduceJob over a set of splits the way unmodified Hadoop would:
every Map task runs, outputs are shuffled, and each Reduce task merge-sorts
and reduces its whole partition.  No memoization, no contraction trees.
The work it charges is the denominator of every speedup in Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.partition import Partition, combine_partitions
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.shuffle import HashPartitioner, run_map_task, shuffle_map_outputs
from repro.mapreduce.types import Split
from repro.telemetry import Phase, SpanKind, Telemetry


@dataclass
class TaskRecord:
    """Cost bookkeeping for one task, consumed by the cluster simulator."""

    kind: str  # "map" | "reduce"
    label: str
    cost: float
    input_bytes: float = 0.0
    preferred_machine: int | None = None
    #: For map tasks: the split whose block placement decides locality.
    split_uid: int | None = None


@dataclass
class JobResult:
    """Everything a job run produces: outputs, metrics, and its tasks."""

    outputs: dict[Any, Any]
    #: The run's own recorder: every charge of the run, and its spans.
    telemetry: Telemetry
    tasks: list[TaskRecord] = field(default_factory=list)

    @property
    def work(self) -> float:
        return self.telemetry.total()


class BatchRuntime:
    """Non-incremental executor for MapReduceJobs."""

    def __init__(
        self, job: MapReduceJob, telemetry: Telemetry | None = None
    ) -> None:
        self.job = job
        self.partitioner = HashPartitioner(job.num_reducers)
        #: Long-lived telemetry backbone to graft each run's span tree
        #: into.  Every ``run`` still accounts into its own fresh recorder
        #: — the seed behaviour, and what keeps its totals bit-identical —
        #: and the finished tree is adopted here for the combined trace.
        self.telemetry = telemetry

    def run(self, splits: Sequence[Split], label: str = "batch") -> JobResult:
        """Execute the full job over ``splits`` from scratch."""
        scope = Telemetry(label=label)
        tasks: list[TaskRecord] = []

        with scope.span(label, SpanKind.WINDOW_UPDATE):
            map_outputs: list[list[Partition]] = []
            with scope.span("map", SpanKind.PHASE):
                for split in splits:
                    before = scope.total()
                    partitions = run_map_task(
                        self.job,
                        split.records,
                        self.partitioner,
                        scope,
                        label=f"map:{split.label or split.uid}",
                    )
                    map_outputs.append(partitions)
                    tasks.append(
                        TaskRecord(
                            kind="map",
                            label=f"map:{split.label or split.uid}",
                            cost=scope.total() - before,
                            input_bytes=float(len(split)),
                            split_uid=split.uid,
                        )
                    )

            per_reducer = shuffle_map_outputs(map_outputs, self.job.num_reducers)
            outputs: dict[Any, Any] = {}
            with scope.span("reduce", SpanKind.PHASE):
                for reducer_index, leaf_partitions in enumerate(per_reducer):
                    before = scope.total()
                    with scope.span(f"reduce:{reducer_index}", SpanKind.TASK):
                        merged = combine_partitions(
                            leaf_partitions,
                            self.job.combiner,
                            telemetry=scope,
                            phase=Phase.REDUCE,
                            cost_factor=self.job.costs.combine_cost_factor,
                        )
                        reduced = reduce_partition(self.job, merged, scope)
                    outputs.update(reduced)
                    tasks.append(
                        TaskRecord(
                            kind="reduce",
                            label=f"reduce:{reducer_index}",
                            cost=scope.total() - before,
                            input_bytes=float(
                                sum(len(p) for p in leaf_partitions)
                            ),
                        )
                    )
        if self.telemetry is not None:
            self.telemetry.adopt(scope)
        return JobResult(outputs=outputs, telemetry=scope, tasks=tasks)


def reduce_partition(  # analysis: charge-in-caller-span (reduce-task span)
    job: MapReduceJob, partition: Partition, telemetry: Telemetry | None = None
) -> dict[Any, Any]:
    """Apply the Reduce function to every key of a combined partition."""
    outputs = {
        key: job.reduce_fn(key, value) for key, value in partition.items()
    }
    if telemetry is not None:
        telemetry.charge(Phase.REDUCE, len(partition) * job.costs.reduce_cost_per_key)
    return outputs
