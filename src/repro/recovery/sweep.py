"""The kill-at-every-boundary crash-restart sweep.

For each tree variant, runs the fixed equivalence scenario twice:

* the *baseline*: one uninterrupted engine driven through every slide;
* for every slide boundary ``k``: a fresh engine driven through the
  first ``k`` runs, checkpointed, *discarded* (the simulated kill), then
  restored from disk and driven through the remaining runs.

The resumed runs must reproduce the baseline's records **bit for bit** —
outputs fingerprint, per-phase work breakdown, simulated makespan, space,
and task-graph shape (the same record schema the plan-equivalence gate
uses).  Any divergence is reported as a mismatch and fails the sweep.

``python -m repro.recovery --out report.json --keep-checkpoint dir``
drives this from CI, which publishes both artifacts.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Any

from repro.cluster.chaos import ChaosPlan, ChaosSchedule
from repro.cluster.machine import Cluster, ClusterConfig
from repro.mapreduce.types import Split
from repro.slider.equivalence import (
    SCENARIO_VARIANTS,
    _MODES,
    _run_record,
    _scenario_job,
    _scenario_split,
)
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode


def _scenario_steps(mode: WindowMode) -> list[tuple[list[Split], int]]:
    """The slide sequence of the shared equivalence scenario."""
    removed = 0 if mode is WindowMode.APPEND else 2
    single = 0 if mode is WindowMode.APPEND else 1
    steps: list[tuple[list[Split], int]] = [
        ([_scenario_split(i) for i in range(6)], 0),  # initial window
        ([_scenario_split(10), _scenario_split(11)], removed),
        ([_scenario_split(12)], single),
    ]
    if mode is not WindowMode.FIXED:
        steps.append(([], 0))
    return steps


def _make_slider(
    variant: str,
    mode: WindowMode,
    chaos: ChaosSchedule | ChaosPlan | None = None,
) -> Slider:
    cluster = Cluster(ClusterConfig(num_machines=8, straggler_fraction=0.0))
    return Slider(
        _scenario_job(),
        mode,
        config=SliderConfig(mode=mode, tree=variant),
        cluster=cluster,
        chaos=chaos,
    )


def _drive(slider: Slider, steps: list[tuple[list[Split], int]], start: int):
    records = []
    for added, removed in steps[start:]:
        if start == 0 and not records and not slider._ran_initial:
            result = slider.initial_run(added)
        else:
            result = slider.advance(added, removed)
        records.append(_run_record(result))
    return records


def _diff_records(expected: list[dict], got: list[dict], where: str) -> list[str]:
    problems = []
    if len(expected) != len(got):
        return [f"{where}: {len(got)} runs vs {len(expected)} baseline"]
    for baseline, resumed in zip(expected, got):
        label = baseline.get("label", "?")
        for field in sorted(set(baseline) | set(resumed)):
            if baseline.get(field) != resumed.get(field):
                problems.append(
                    f"{where}/{label}.{field}: baseline="
                    f"{baseline.get(field)!r} resumed={resumed.get(field)!r}"
                )
    return problems


def sweep_variant(
    variant: str,
    mode_name: str,
    keep_checkpoint: Path | None = None,
    chaos: ChaosSchedule | ChaosPlan | None = None,
) -> dict[str, Any]:
    """Kill/restore at every slide boundary for one variant.

    ``chaos`` (a schedule or plan) runs the baseline and every victim
    under the same faults; it travels through the checkpoint, so the
    resumed engine meets the rest of it.
    """
    mode = _MODES[mode_name]
    steps = _scenario_steps(mode)
    job = _scenario_job()

    baseline_slider = _make_slider(variant, mode, chaos)
    baseline = _drive(baseline_slider, steps, 0)
    baseline_slider.verify_outputs()

    mismatches: list[str] = []
    kill_points = list(range(1, len(steps)))
    workdir = Path(tempfile.mkdtemp(prefix="slider-sweep-"))
    try:
        for kill_at in kill_points:
            victim = _make_slider(variant, mode, chaos)
            prefix = _drive(victim, steps[:kill_at], 0)
            mismatches.extend(
                _diff_records(
                    baseline[:kill_at], prefix, f"{variant}@k{kill_at}/prefix"
                )
            )
            # Checkpoint at the boundary, then discard the engine (the kill).
            ckpt = workdir / f"{variant}-k{kill_at}"
            victim.checkpoint(ckpt)
            del victim

            resumed = Slider.restore(ckpt, job)
            tail = _drive(resumed, steps, kill_at)
            mismatches.extend(
                _diff_records(
                    baseline[kill_at:], tail, f"{variant}@k{kill_at}"
                )
            )
            resumed.verify_outputs()
            if keep_checkpoint is not None and kill_at == kill_points[-1]:
                if keep_checkpoint.exists():
                    shutil.rmtree(keep_checkpoint)
                shutil.copytree(ckpt, keep_checkpoint)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "variant": variant,
        "mode": mode_name,
        "kill_points": kill_points,
        "runs": len(steps),
        "equivalent": not mismatches,
        "mismatches": mismatches,
    }


def run_sweep(
    variants: list[str] | None = None,
    keep_checkpoint: Path | None = None,
    chaos: ChaosSchedule | ChaosPlan | None = None,
) -> dict[str, Any]:
    """Sweep every (or the selected) tree variant."""
    selected = [
        (variant, mode_name)
        for variant, mode_name in SCENARIO_VARIANTS
        if variants is None or variant in variants
    ]
    results = [
        sweep_variant(
            variant, mode_name, keep_checkpoint=keep_checkpoint, chaos=chaos
        )
        for variant, mode_name in selected
    ]
    return {
        "scenario": "kill-restore-sweep",
        "variants": results,
        "equivalent": all(r["equivalent"] for r in results),
        "mismatch_count": sum(len(r["mismatches"]) for r in results),
    }
