"""The two passes over a workload and the metrics each one yields.

The untraced pass runs the unmodified program and yields every
end-to-end metric.  The traced pass yields every per-layer metric: it
runs a quarter of the slides untraced (for the growth rates and for the
tracing overhead), the same number again with the wrappers installed,
and then the probes.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.telemetry import Span

from . import probes
from .host import Timeline
from .session import Measurement, Session
from .tracing import Tracer, self_time_table
from .workloads import Workload


@dataclass
class PassResult:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    #: Lines for the human reader, printed above the result line.
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else 0.0


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def normalised_ms(timeline: Timeline, timings) -> list[float]:
    return [wall * 1e3 * timeline.factor(start, wall) for start, wall, _ in timings]


def normalised_cpu_ms(timeline: Timeline, timings) -> float:
    return sum(
        cpu * 1e3 * timeline.factor(start, wall) for start, wall, cpu in timings
    )


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); the maximum when there are fewer than eleven."""
    if not values:
        return 100.0, 0.0
    ordered = sorted(values)
    if len(ordered) <= 10:
        return 100.0, ordered[-1]
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _live_objects() -> tuple[int, int]:
    """(all objects the collector tracks, ``Span`` instances) after a
    full collection."""
    gc.collect()
    objects = gc.get_objects()
    return len(objects), sum(1 for item in objects if type(item) is Span)


def _engine_counts(engine) -> dict[str, float]:
    """The engine's own counters the passes report growth of."""
    counters = engine.telemetry.counters
    return {
        "dispatched": counters.get("backend.dispatch_runs", 0.0),
        "fallbacks": sum(
            value
            for name, value in counters.items()
            if name.startswith("backend.") and name.endswith("_fallbacks")
        ),
        "hits": sum(tree.memo.stats.hits for tree in engine.trees),
        "misses": sum(tree.memo.stats.misses for tree in engine.trees),
    }


def _growth(engine, before: dict[str, float]) -> dict[str, float]:
    return {
        name: value - before[name] for name, value in _engine_counts(engine).items()
    }


def _check_dispatch(session: Session, dispatched: float, slides: int) -> float:
    """A process-backend run that fell back in-process must not be read
    as a process-backend number."""
    share = dispatched / slides
    if session.workload.config["execution_backend"] == "process" and share < 0.99:
        session.problems.append(
            f"only {share:.3f} of the advances were dispatched to workers"
        )
    return share


def _advance_metrics(timeline: Timeline, measurement: Measurement) -> dict:
    timings = measurement.timings
    slides = max(1, len(timings["advance"]))
    cpu_ms = (
        normalised_cpu_ms(timeline, timings["advance"])
        + normalised_cpu_ms(timeline, timings["background"])
        + measurement.children_cpu_s * 1e3 * timeline.mean_factor()
    )
    return {
        "advance_ms_p50": _median(normalised_ms(timeline, timings["advance"])),
        "slide_cpu_ms_mean": cpu_ms / slides,
        "checkpoint_ms_p50": _median(normalised_ms(timeline, timings["checkpoint"])),
        "restore_ms_p50": _median(normalised_ms(timeline, timings["restore"])),
        "work_units_per_advance": _mean(measurement.work),
    }


def untraced_pass(
    workload: Workload,
    seed: int,
    slides: int,
    setup_reps: int,
    scratch: Path,
) -> PassResult:
    timeline = Timeline()
    session = Session(workload, seed, timeline, scratch)
    try:
        session.generate(workload.warmup_ops + slides)
        setup = session.set_up(setup_reps)
        session.warm_up()
        before = _engine_counts(session.engine)
        measurement = session.measure(slides)
        _check_dispatch(
            session, _growth(session.engine, before)["dispatched"], slides
        )
        objects, _ = _live_objects()
    finally:
        session.close()
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = {
        "setup_s": _median(setup),
        **_advance_metrics(timeline, measurement),
        "rss_peak_mb": _rss_kb() / 1024.0,
        "live_objects_end_k": objects / 1e3,
    }
    advances = normalised_ms(timeline, measurement.timings["advance"])
    percentile, value = tail(advances)
    notes = [
        f"slides {slides}, set-up repetitions "
        + " ".join(f"{s:.3f}" for s in setup)
        + " s",
        f"advance p{percentile:.2f} {value:.3f} ms over n={len(advances)}; "
        f"calibration median {statistics.median(timeline.sample_ms):.4f} ms, "
        f"max/min {timeline.spread():.3f}, {len(timeline.sample_ms)} samples",
    ]
    return PassResult(
        metrics, session.attempted, session.failed, session.problems, notes
    )


def traced_pass(
    workload: Workload,
    seed: int,
    slides: int,
    scratch: Path,
    trace_path: Path,
    import_s: float,
) -> PassResult:
    timeline = Timeline()
    session = Session(workload, seed, timeline, scratch / "main")
    twin = None
    try:
        session.generate(workload.warmup_ops + 2 * slides)
        setup = session.set_up(1)
        session.warm_up()

        # -- the untraced quarter: growth rates and the overhead baseline
        objects_before, spans_before = _live_objects()
        rss_before = _rss_kb()
        plain = session.measure(slides)
        objects_after, spans_after = _live_objects()
        rss_after = _rss_kb()

        # -- the traced quarter
        traced_from = session.position
        before = _engine_counts(session.engine)
        tracer = Tracer()
        traced = session.measure(slides, tracer)
        # (the engine may be a restored one by now)
        grown = _growth(session.engine, before)
        live_entries = sum(len(tree.memo.entries) for tree in session.engine.trees)
        dispatched_share = _check_dispatch(session, grown["dispatched"], slides)

        # -- the in-process twin of a process-backend workload, over the
        # very slides the traced quarter saw
        twin_contract_ms = None
        if workload.config["execution_backend"] == "process":
            twin = Session(
                replace(
                    workload,
                    config=dict(
                        workload.config, execution_backend="inprocess", workers=1
                    ),
                ),
                seed,
                timeline,
                scratch / "twin",
            )
            twin.stream = session.stream
            twin.set_up(1)
            twin.run_untimed((traced_from - twin.position) // workload.step)
            twin_tracer = Tracer()
            twin.measure(slides, twin_tracer)
            twin_contract_ms = twin_tracer.per_slide(timeline)[
                "backends.contract"
            ]["total_ms"]
            session.problems += twin.problems

        probed = probes.run(session)
    finally:
        session.close()
        if twin is not None:
            twin.close()
        shutil.rmtree(scratch, ignore_errors=True)

    layers = tracer.per_slide(timeline)

    def layer(name: str, column: str = "total_ms") -> float:
        return layers.get(name, {}).get(column, 0.0)

    plain_ms = normalised_ms(timeline, plain.timings["advance"])
    plain_p50 = _median(plain_ms)
    traced_p50 = _median(normalised_ms(timeline, traced.timings["advance"]))
    # What one slide costs in the traced quarter: its advance and, on
    # the split-processing workload, its background call.
    traced_slide_ms = layer("system.advance") + layer("system.background_preprocess")
    fingerprint_calls = tracer.counts["partition.stable_hash"] / slides
    quarter = max(1, len(plain_ms) // 4)
    tail_percentile, tail_ms = tail(plain_ms)
    raw_ms = [wall * 1e3 for _, wall, _ in plain.timings["advance"]]
    checkpoints = normalised_ms(timeline, plain.timings["checkpoint"])
    residual = tracer.worst_residual()
    if residual > 0.05:
        session.problems.append(
            f"self times miss a traced call's span by {residual:.1%}"
        )
    contract_ms = layer("backends.contract")

    metrics = {
        "system.self_ms": layer("system.advance", "self_ms"),
        "planning.begin_run_ms": layer("planning.begin_run"),
        "planning.reduce_all_ms": layer("planning.reduce_all"),
        "mapreduce.run_maps_ms": layer("mapreduce.run_maps"),
        "backends.contract_ms": contract_ms,
        "backends.dispatch_overhead_ms": (
            0.0 if twin_contract_ms is None else contract_ms - twin_contract_ms
        ),
        "backends.dispatched_share": dispatched_share,
        "backends.fallbacks": grown["fallbacks"],
        "tree.advance_ms": layer("tree.advance", "self_ms"),
        "tree.background_ms": layer("tree.background_preprocess", "self_ms"),
        "partition.fingerprint_calls": fingerprint_calls,
        "partition.fingerprint_share": _ratio(
            fingerprint_calls * probed["hashing.stable_hash_us"] / 1e3,
            traced_slide_ms,
        ),
        "memo.hit_share": _ratio(grown["hits"], grown["hits"] + grown["misses"]),
        "memo.live_entries": live_entries,
        "memo.space_keys": traced.space_keys,
        "execute.steps": _mean(traced.plan_steps),
        "compile.plan_cache_hit_share": traced.plan_cache_hits / slides,
        "compile.finish_run_ms": layer("compile.finish_run"),
        "compile.batched_steps": _mean(traced.batched_steps),
        "lifecycle.space_ms": layer("lifecycle.space"),
        "lifecycle.collect_garbage_ms": layer("lifecycle.collect_garbage"),
        "execution.simulate_ms": layer("execution.simulate"),
        "telemetry.spans_opened": tracer.counts["telemetry.open_span"] / slides,
        "telemetry.live_spans_per_advance": (spans_after - spans_before) / slides,
        "recovery.checkpoint_bytes": plain.checkpoint_bytes,
        "recovery.checkpoint_ms_growth": (
            _ratio(checkpoints[1], checkpoints[0]) if len(checkpoints) > 1 else 0.0
        ),
        "background_ms_p50": _median(
            normalised_ms(timeline, plain.timings["background"])
        ),
        "slider.advance_ms_raw_p50": _median(raw_ms),
        "slider.advance_ms_tail": tail_ms,
        "slider.advance_ms_drift": _ratio(
            _median(plain_ms[-quarter:]), _median(plain_ms[:quarter])
        ),
        "slider.speedup_vs_scratch": _ratio(probed["mapreduce.scratch_ms"], plain_p50),
        "slider.live_objects_per_advance": (objects_after - objects_before) / slides,
        "slider.rss_kb_per_advance": (rss_after - rss_before) / slides,
        "setup.import_s": import_s * timeline.factor(timeline.sample_times[0]),
        "setup.first_s": setup[0],
        "host.calibration_ms": statistics.median(timeline.sample_ms),
        "host.calibration_spread": timeline.spread(),
        "trace.overhead_share": _ratio(traced_p50, plain_p50) - 1.0,
        "failed_share": session.failed / max(1, session.attempted),
        **probed,
    }
    tracer.write_chrome_trace(trace_path, workload.name)
    table = self_time_table(layers)
    trace_path.with_suffix(".selftime.txt").write_text(table + "\n")
    notes = [
        f"slides {slides} untraced then {slides} traced; "
        f"tail is p{tail_percentile:.2f} over n={len(plain_ms)}",
        f"trace: {trace_path} ({len(tracer.spans)} spans, worst self-time "
        f"residual {residual:.2e})",
        table,
    ]
    return PassResult(
        metrics, session.attempted, session.failed, session.problems, notes
    )
