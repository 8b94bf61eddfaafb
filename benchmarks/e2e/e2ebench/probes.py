"""Probes: public functions timed directly on data taken from the stream.

They give the unit costs of work that is too hot to time per call inside
an advance (a fingerprint hash, one span) or that no advance runs at all
(a from-scratch batch run, the generator's offset cost).  Each result is
the median of five batches, normalised like every other timing.
"""

from __future__ import annotations

import itertools
import statistics
import time

from repro import BatchRuntime, Split, WorkMeter
from repro.apps.registry import APP_REGISTRY
from repro.common.hashing import stable_hash
from repro.core.partition import combine_partitions
from repro.core.sharedmem import SharedMemoStore
from repro.mapreduce.shuffle import HashPartitioner, run_map_task
from repro.telemetry import SpanKind, Telemetry

_BATCHES = 5
#: ``datagen.offset_cost_ratio`` compares one split made here with one
#: made at offset 0.
FAR_OFFSET = 500
_BATCH_SECONDS = 0.004
_SLOW_SECONDS = 0.2


def _seconds_per_call(timeline, operation) -> float:
    """Normalised seconds one ``operation()`` takes: the median of five
    batches of at least ``_BATCH_SECONDS`` (three when one call is slow)."""
    calls = 1
    batches: list[tuple[float, float]] = []
    wanted = _BATCHES
    while len(batches) < wanted:
        timeline.calibrate_if_due()
        start = time.perf_counter()
        for _ in range(calls):
            operation()
        elapsed = time.perf_counter() - start
        if not batches and elapsed < _BATCH_SECONDS and calls < 1 << 20:
            calls *= 2  # still sizing the batch
            continue
        if elapsed > _SLOW_SECONDS:
            wanted = 3
        batches.append((start, elapsed))
    timeline.calibrate()
    return statistics.median(
        elapsed * timeline.factor(start, elapsed) / calls
        for start, elapsed in batches
    )


def run(session) -> dict[str, float]:
    """All probes, on the session's job, engine and stream."""
    timeline = session.timeline
    job = session.job
    engine = session.engine
    workload = session.workload
    split = session.stream[session.position - 1]
    partitioner = HashPartitioner(job.num_reducers)
    results: dict[str, float] = {}

    def per_call(operation) -> float:
        return _seconds_per_call(timeline, operation)

    map_s = per_call(
        lambda: run_map_task(job, split.records, partitioner, WorkMeter(), label="probe")
    )
    results["mapreduce.map_task_us_per_record"] = map_s * 1e6 / len(split)
    build_s = per_call(lambda: Split.from_records(split.records, label=split.label))
    results["mapreduce.split_build_us_per_record"] = build_s * 1e6 / len(split)
    window = list(engine.window)
    results["mapreduce.scratch_ms"] = 1e3 * per_call(
        lambda: BatchRuntime(job).run(window)
    )

    # Two sibling leaves of reducer 0: the map outputs of the two newest
    # splits in the window.
    left, right = (
        engine.map_memo[s.uid][0] for s in window[-2:]
    )
    combined = combine_partitions([left, right], job.combiner)
    results["partition.combine_us_per_entry"] = (
        per_call(lambda: combine_partitions([left, right], job.combiner))
        * 1e6
        / max(1, len(combined))
    )
    entries = list(engine.trees[0].root().items())[:64]
    results["hashing.stable_hash_us"] = (
        per_call(lambda: [stable_hash(entry, salt="pent") for entry in entries])
        * 1e6
        / max(1, len(entries))
    )

    store = SharedMemoStore(namespaces=1, segment_bytes=8 << 20, slots=1 << 10)
    try:
        keys = itertools.cycle(range(64))
        results["sharedmem.put_us"] = 1e6 * per_call(
            lambda: store.put(0, next(keys), left)
        )
        results["sharedmem.get_us"] = 1e6 * per_call(lambda: store.get(0, 0))
    finally:
        store.close()

    telemetry = Telemetry(label="probe")

    def one_span() -> None:
        with telemetry.span("probe", SpanKind.TASK):
            pass
        telemetry.root.children.clear()

    results["telemetry.span_us"] = 1e6 * per_call(one_span)

    # One call at the far offset: the point generator takes a second there.
    spec = APP_REGISTRY[workload.app]
    start = time.perf_counter()
    spec.make_splits(1, session.seed, FAR_OFFSET)
    far = time.perf_counter() - start
    timeline.calibrate()
    results["datagen.offset_cost_ratio"] = (
        far * timeline.factor(start, far)
    ) / per_call(lambda: spec.make_splits(1, session.seed, 0))
    return results
