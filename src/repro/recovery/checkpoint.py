"""Durable checkpoints for Slider engines and stream drivers.

A checkpoint captures everything a continuation needs *except* the job
(user functions are not serialized; the same job object is re-supplied at
restore time and validated against the manifest).  Restoring rebuilds
the cluster from its config — consuming the cluster RNG exactly as the
original construction did, so the stream position matches — then
constructs a fresh Slider and applies the captured state on top.

Checkpoints are only legal between runs: an open plan or unclosed spans
mean a window update is mid-flight, and a checkpoint taken there could
never be continued bit-identically.

``write_driver_checkpoint``/``restore_driver`` extend the format with a
``stream`` segment holding the :class:`~repro.slider.driver.StreamDriver`
cursor: the pending (unacknowledged) record tail, live slide batches,
and the next boundary.  Restore replays only that tail — records already
folded into a completed slide are never re-fed.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.common.errors import CheckpointError
from repro.recovery.segments import (
    read_manifest,
    read_segment,
    write_segments,
)
from repro.recovery.state import (
    apply_engine_state,
    apply_telemetry,
    capture_engine_state,
    capture_telemetry,
)

if TYPE_CHECKING:  # pragma: no cover - type-only facade references
    from repro.mapreduce.job import MapReduceJob
    from repro.slider.driver import StreamDriver, TimestampFn
    from repro.slider.system import Slider


def _check_idle(engine: "Slider") -> None:
    if engine.executor.active:
        raise CheckpointError(
            "cannot checkpoint mid-run: the executor has an open plan — "
            "checkpoint between window updates (after initial_run/advance "
            "returns)"
        )
    open_spans = engine.telemetry.unclosed_spans()
    if open_spans:
        names = [span.name for span in open_spans[:3]]
        raise CheckpointError(
            f"cannot checkpoint mid-run: {len(open_spans)} telemetry "
            f"span(s) still open (e.g. {names}) — checkpoint between "
            "window updates"
        )


def write_checkpoint(
    engine: "Slider",
    path: str | Path,
    extra_segments: dict[str, Any] | None = None,
) -> Path:
    """Write a fingerprinted checkpoint of an idle engine to ``path``."""
    _check_idle(engine)
    segments: dict[str, Any] = {
        "config": {
            "slider_config": engine.config,
            "mode": engine.mode,
            "cluster_config": (
                engine.cluster.config if engine.cluster is not None else None
            ),
            "chaos": engine.chaos,
            "scheduler": engine.scheduler,
        },
        "state": capture_engine_state(engine),
        "telemetry": capture_telemetry(engine.telemetry),
    }
    if extra_segments:
        segments.update(extra_segments)
    meta = {
        "job": engine.job.name,
        "num_reducers": engine.job.num_reducers,
        "run_index": engine.run_index,
    }
    return write_segments(path, segments, meta)


def restore_slider(path: str | Path, job: "MapReduceJob") -> "Slider":
    """Rebuild a Slider from a checkpoint, verifying every fingerprint."""
    from repro.cluster.machine import Cluster
    from repro.recovery.repair import verify_restored
    from repro.slider.system import Slider, SliderConfig

    manifest = read_manifest(path)
    meta = manifest["meta"]
    if meta.get("job") != job.name or meta.get("num_reducers") != job.num_reducers:
        raise CheckpointError(
            f"checkpoint at {path} was written for job "
            f"{meta.get('job')!r} with {meta.get('num_reducers')} reducers; "
            f"got job {job.name!r} with {job.num_reducers} — restore with "
            "the same job the checkpoint was taken from"
        )
    config = read_segment(path, manifest, "config")
    state = read_segment(path, manifest, "state")
    telemetry_state = read_segment(path, manifest, "telemetry")

    cluster = None
    if config["cluster_config"] is not None:
        # Reconstruction consumes the cluster RNG exactly as the original
        # __init__ did; the captured alive/straggle flags are applied on
        # top by apply_engine_state, so the stream position matches.
        cluster = Cluster(config["cluster_config"])
    # Unpickling a frozen dataclass restores its whole ``__dict__``: a
    # config written before a field was dropped would carry it on.
    saved = config["slider_config"]
    slider_config = SliderConfig(**{
        f.name: getattr(saved, f.name) for f in dataclasses.fields(SliderConfig)
    })
    engine = Slider(
        job,
        mode=config["mode"],
        config=slider_config,
        cluster=cluster,
        scheduler=config["scheduler"],
        chaos=config["chaos"],
    )
    apply_engine_state(engine, state)
    apply_telemetry(engine.telemetry, telemetry_state)
    verify_restored(engine)
    return engine


# -- stream drivers ----------------------------------------------------------


def write_driver_checkpoint(driver: "StreamDriver", path: str | Path) -> Path:
    """Checkpoint a StreamDriver: engine state plus the stream cursor."""
    stream = {
        "pending": list(driver._pending),
        "live_batches": [
            (batch.slide_index, batch.splits)
            for batch in driver._live_batches
        ],
        "boundary_index": driver._boundary_index,
        "slide_index": driver._slide_index,
        "ran_initial": driver._ran_initial,
        "slide": driver.slide,
        "window": driver.window,
        "split_size": driver.split_size,
        "completed_slides": len(driver.results),
    }
    return write_checkpoint(driver.slider, path, extra_segments={"stream": stream})


def restore_driver(
    path: str | Path, job: "MapReduceJob", timestamp_fn: "TimestampFn"
) -> "StreamDriver":
    """Rebuild a StreamDriver and its engine from a driver checkpoint.

    ``timestamp_fn`` is re-supplied like the job (functions are not
    serialized).  The restored driver's ``results`` list starts empty:
    only slides completed *after* the restore appear there; the pending
    record tail (fed but not yet closed into a slide) is replayed into
    the buffer so the next boundary crossing processes it exactly once.
    """
    from repro.slider.driver import StreamDriver, _SlideBatch

    manifest = read_manifest(path)
    stream = read_segment(path, manifest, "stream")
    slider = restore_slider(path, job)
    driver = StreamDriver.__new__(StreamDriver)
    driver.job = job
    driver.timestamp_fn = timestamp_fn
    driver.slide = stream["slide"]
    driver.window = stream["window"]
    driver.split_size = stream["split_size"]
    driver.mode = slider.mode
    driver.slider = slider
    driver._live_batches = [
        _SlideBatch(slide_index, splits)
        for slide_index, splits in stream["live_batches"]
    ]
    driver._pending = list(stream["pending"])
    driver._boundary_index = stream["boundary_index"]
    driver._slide_index = stream["slide_index"]
    driver._ran_initial = stream["ran_initial"]
    driver.results = []
    return driver
