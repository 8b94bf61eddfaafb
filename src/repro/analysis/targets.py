"""Resolving *what* to check: jobs, registries, plans, user modules.

A :class:`CheckTarget` bundles the callables the purity checker should walk
and the combiners the law harness should falsify, for one named unit (a
job, an aggregation, a whole app).  Resolution knows about every way the
repo builds jobs:

* a :class:`~repro.mapreduce.job.MapReduceJob` directly;
* the micro-benchmark :data:`~repro.apps.registry.APP_REGISTRY` and the
  three case-study job factories;
* the aggregates of :mod:`repro.query.aggregates` (as compiled into GROUP
  BY stages);
* a compiled query plan's stages;
* an arbitrary imported module, scanned for jobs, combiners, aggregations,
  and app specs — the CLI's entry point for user workloads.
"""

from __future__ import annotations

import types
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.mapreduce.combiners import Combiner
from repro.mapreduce.job import MapReduceJob


@dataclass
class CheckTarget:
    """One unit of analysis: named functions plus combiners to verify."""

    name: str
    #: (role, callable) pairs for the purity checker.
    functions: list[tuple[str, Callable]] = field(default_factory=list)
    #: (label, combiner) pairs for the law harness.
    combiners: list[tuple[str, Combiner]] = field(default_factory=list)


def check_target(
    target: CheckTarget,
    report: Any,
    *,
    check_purity: bool = True,
    check_laws: bool = True,
    max_examples: int = 60,
) -> None:
    """Run the enabled checks over one target, extending ``report``."""
    from repro.analysis.laws import check_combiner_laws
    from repro.analysis.purity import analyze_functions

    if check_purity:
        report.extend(analyze_functions(target.functions))
    if check_laws:
        for label, combiner in target.combiners:
            report.extend(
                check_combiner_laws(
                    combiner,
                    where=f"{target.name} ({label})",
                    max_examples=max_examples,
                )
            )


def job_target(job: MapReduceJob) -> CheckTarget:
    """Everything a MapReduceJob exposes to the data plane."""
    combiner = job.combiner
    split_fn = [("map_split", job.map_split_fn)] if job.map_split_fn else []
    return CheckTarget(
        name=f"job:{job.name}",
        functions=[
            ("map", job.map_fn),
            *split_fn,
            ("reduce", job.reduce_fn),
            ("combiner.merge", combiner.merge),
            ("combiner.value_size", combiner.value_size),
            ("combiner.merge_cost", combiner.merge_cost),
            ("combiner.fingerprint", combiner.fingerprint),
        ],
        combiners=[(f"job:{job.name}", combiner)],
    )


def aggregation_target(name: str, aggregation: Any) -> CheckTarget:
    """One :class:`~repro.query.aggregates.Aggregation`."""
    combiner = aggregation.combiner()
    return CheckTarget(
        name=f"aggregate:{name}",
        functions=[
            ("initial", aggregation.initial),
            ("finalize", aggregation.finalize),
            ("combiner.merge", combiner.merge),
            ("combiner.fingerprint", combiner.fingerprint),
        ],
        combiners=[(f"aggregate:{name}", combiner)],
    )


def plan_targets(plan: Any) -> list[CheckTarget]:
    """The jobs of a compiled query plan (``CompiledPlan`` duck-typed)."""
    targets = []
    for stage in getattr(plan, "stages", []):
        target = job_target(stage.job)
        target.name = f"stage{stage.index}:{stage.job.name}"
        targets.append(target)
    return targets


def registry_targets() -> list[CheckTarget]:
    """The shipped corpus: five micro-benchmarks, three case studies, and
    the stock query aggregates — the jobs ``--self`` keeps clean."""
    from repro.apps.glasnost import glasnost_job
    from repro.apps.netsession import netsession_audit_job
    from repro.apps.registry import micro_benchmark_apps
    from repro.apps.twitter import propagation_tree_job
    from repro.query import aggregates

    targets: list[CheckTarget] = []
    for spec in micro_benchmark_apps():
        target = job_target(spec.make_job())
        target.name = f"app:{spec.name}"
        targets.append(target)
    for factory in (propagation_tree_job, glasnost_job, netsession_audit_job):
        job = factory()
        target = job_target(job)
        target.name = f"case-study:{job.name}"
        targets.append(target)
    for agg_name, aggregation in (
        ("Count", aggregates.Count()),
        ("SumField", aggregates.SumField(0)),
        ("Min", aggregates.Min(0)),
        ("Max", aggregates.Max(0)),
        ("Mean", aggregates.Mean(0)),
        ("CountDistinct", aggregates.CountDistinct(0)),
        (
            "Multi",
            aggregates.MultiAggregation(
                [aggregates.Count(), aggregates.Mean(0)]
            ),
        ),
    ):
        targets.append(aggregation_target(agg_name, aggregation))
    return targets


def module_targets(module: types.ModuleType) -> list[CheckTarget]:
    """Scan an imported module for checkable objects.

    Picks up MapReduceJob instances, Combiner instances, Aggregation
    instances, AppSpec registries, and zero-argument ``*_job`` factories.
    """
    from repro.query.aggregates import Aggregation

    targets: list[CheckTarget] = []
    seen: set[int] = set()

    def add(target: CheckTarget) -> None:
        targets.append(target)

    for name, value in sorted(vars(module).items()):
        if name.startswith("__"):
            continue
        if getattr(value, "__module__", module.__name__) != module.__name__ and not (
            isinstance(value, (MapReduceJob, Combiner))
        ):
            continue
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, MapReduceJob):
            add(job_target(value))
        elif isinstance(value, Combiner):
            add(
                CheckTarget(
                    name=f"combiner:{name}",
                    functions=[
                        ("merge", value.merge),
                        ("fingerprint", value.fingerprint),
                    ],
                    combiners=[(f"combiner:{name}", value)],
                )
            )
        elif isinstance(value, Aggregation):
            add(aggregation_target(name, value))
        elif callable(value) and name.endswith("_job"):
            try:
                job = value()
            except TypeError:
                continue  # factory needs arguments; skip
            if isinstance(job, MapReduceJob):
                target = job_target(job)
                target.name = f"{name}()"
                add(target)
    return targets
