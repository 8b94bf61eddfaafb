"""Job specification and cost model.

A :class:`MapReduceJob` is the non-incremental program the user writes once;
Slider runs it either from scratch (baseline) or incrementally, without any
change to the job itself — the paper's transparency requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from repro.common.errors import CombinerContractError
from repro.mapreduce.combiners import Combiner

# map_fn(record) -> iterable of (key, value) pairs, value already in
# combined form (see combiners module docstring).
MapFn = Callable[[Any], Iterable[tuple[Any, Any]]]
# reduce_fn(key, combined_value) -> final output value for the key.
ReduceFn = Callable[[Any, Any], Any]
# map_split_fn(records) -> per record, in order, the pairs map_fn(record) yields.
MapSplitFn = Callable[[Sequence[Any]], Sequence[Iterable[tuple[Any, Any]]]]


@dataclass(frozen=True)
class CostModel:
    """Abstract work-unit costs for the phases of a job.

    ``map_cost_per_record`` encodes compute intensity: K-Means/KNN have
    large values (the paper's compute-intensive class, ~98 % of work in the
    Map phase, Figure 9), text/matrix jobs small ones (data-intensive
    class, roughly even split).
    """

    map_cost_per_record: float = 1.0
    combine_cost_factor: float = 1.0
    reduce_cost_per_key: float = 1.0


@dataclass(frozen=True)
class MapReduceJob:
    """A complete job: Map + Combiner + Reduce + partitioning + costs."""

    name: str
    map_fn: MapFn
    combiner: Combiner
    reduce_fn: ReduceFn = field(default=lambda key, value: value)
    num_reducers: int = 4
    costs: CostModel = field(default_factory=CostModel)
    #: Optional accelerated *spelling* of ``map_fn`` over a whole split, never
    #: a second definition: ``==`` to the per-record outputs is the contract.
    map_split_fn: MapSplitFn | None = None

    def __post_init__(self) -> None:
        if self.num_reducers <= 0:
            raise ValueError(f"num_reducers must be positive, got {self.num_reducers}")
        if not self.combiner.associative:
            raise CombinerContractError(
                f"job {self.name!r}: contraction requires an associative combiner"
            )

    def validate(self, *, max_examples: int = 60):
        """Check this job's contracts beyond the constructor's cheap flags.

        Statically analyzes the Map/Combine/Reduce functions for
        nondeterminism and impurity, then property-tests the combiner's
        declared algebra (associativity, commutativity if claimed, merge
        and fingerprint consistency) with ``max_examples`` generated
        examples per law: the pair ``python -m repro.analysis MODULE``
        runs.  It imports :mod:`repro.analysis` lazily and costs real
        time, so it belongs in tests and CI rather than on the hot
        construction path.

        Returns the :class:`repro.analysis.AnalysisReport`; raises
        :class:`~repro.common.errors.CombinerContractError` if any check
        found an error-severity violation.
        """
        from repro.analysis import AnalysisReport, check_target
        from repro.analysis.targets import job_target

        report = AnalysisReport()
        check_target(job_target(self), report, max_examples=max_examples)
        if not report.ok:
            summary = "; ".join(f.message for f in report.errors())
            raise CombinerContractError(
                f"job {self.name!r} failed validation: {summary}"
            )
        return report

    def with_reducers(self, num_reducers: int) -> "MapReduceJob":
        """A copy of this job with a different reducer count."""
        return replace(self, num_reducers=num_reducers)
