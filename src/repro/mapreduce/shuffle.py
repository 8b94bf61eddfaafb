"""Partitioning and shuffle.

Map outputs are routed to reducer partitions by a hash partitioner (as in
Hadoop).  The shuffle groups one Map task's emissions into per-reducer
:class:`~repro.core.partition.Partition` objects — the leaves of the
contraction trees.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Iterable

from repro.common.hashing import encode_key, hash_encoded
from repro.core.partition import Partition
from repro.core.poison import PoisonContext
from repro.mapreduce.job import MapReduceJob
from repro.telemetry import Phase, SpanKind, Telemetry


class HashPartitioner:
    """Routes a key to one of ``num_partitions`` reducers, stably."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        self.num_partitions = num_partitions

    def partition(self, key: Any, encoded: bytes | None = None) -> int:
        """``key``'s reducer (``encoded``: its ``encode_key``, if made)."""
        if encoded is None:
            encoded = encode_key(key)
        return hash_encoded(encoded, salt="part") % self.num_partitions


def run_map_task(  # analysis: charge-in-caller-span (opens its own task span)
    job: MapReduceJob,
    records: Iterable[Any],
    partitioner: HashPartitioner,
    telemetry: Telemetry | None = None,
    label: str = "",
    poison: PoisonContext | None = None,
) -> list[Partition]:
    """Run the Map function over a split and locally combine per reducer.

    Returns one Partition per reducer (possibly empty).  Charges map work
    (per record, at the job's compute intensity) and shuffle work (per
    emitted pair) to ``telemetry``, if given, inside one TASK span around
    the whole task (named ``label`` if given).

    The partitioner is asked once per distinct key, not per pair: keys equal
    as dict keys (``1``, ``1.0`` and ``True``) are one key to the task, as
    they are to every dict downstream, and go where the first of them went.
    It is handed the key's encoding, from which the leaf's fingerprint is
    finished too: a key is encoded once a task.

    A job that declares ``map_split_fn`` has its whole split mapped in one
    call — unless a poison policy is configured: quarantine is per record,
    and lives only in the per-record loop.

    ``poison`` (when the engine configured a poison policy) quarantines
    records whose ``map_fn`` raises — in the call or, for a generator,
    while its pairs are drained; after the policy's bounded retries —
    to the dead-letter channel instead of aborting the task; quarantined
    records emit nothing but still pay their map cost (the attempts ran).
    """
    scope = (
        telemetry.span(label or "map-task", SpanKind.TASK)
        if telemetry is not None
        else nullcontext()
    )
    with scope:
        buffers: list[dict[Any, list[Any]]] = [
            {} for _ in range(partitioner.num_partitions)
        ]
        # key -> that key's value list in its reducer's buffer, and key -> its
        # encoding: made once, for the route and for the leaf's fingerprint.
        routed: dict[Any, list[Any]] = {}
        encoded: dict[Any, bytes] = {}
        record_count = 0
        pair_count = 0
        if job.map_split_fn is not None and poison is None:
            # The split-at-a-time spelling of the loop below: same pairs in
            # the same order, so routing and buffer order are the loop's.
            for pairs in job.map_split_fn(records):
                record_count += 1
                for key, value in pairs:
                    pair_count += 1
                    values = routed.get(key)
                    if values is None:
                        code = encoded[key] = encode_key(key)
                        buffer = buffers[partitioner.partition(key, code)]
                        values = routed[key] = buffer[key] = []
                    values.append(value)
        else:
            for record in records:
                record_count += 1
                try:
                    pairs = job.map_fn(record)
                    if poison is not None:
                        # A generator's body runs when it is drained: do that
                        # here, so a failed attempt emits nothing.
                        pairs = list(pairs)
                except Exception as exc:
                    if poison is None:
                        raise
                    ok, pairs, attempts, last = poison.queue.retry(
                        lambda: list(job.map_fn(record)), exc
                    )
                    if not ok:
                        poison.queue.quarantine(
                            "map", record, last, attempts, label or "map-task"
                        )
                        continue
                for key, value in pairs:
                    pair_count += 1
                    values = routed.get(key)
                    if values is None:
                        code = encoded[key] = encode_key(key)
                        buffer = buffers[partitioner.partition(key, code)]
                        values = routed[key] = buffer[key] = []
                    values.append(value)

        if telemetry is not None:
            telemetry.charge(Phase.MAP, record_count * job.costs.map_cost_per_record)
            telemetry.charge(
                Phase.SHUFFLE, pair_count * job.costs.shuffle_cost_per_pair
            )

        outputs = []
        for buffer in buffers:
            outputs.append(
                Partition.from_value_lists(
                    buffer,
                    job.combiner,
                    on_poison=(
                        poison.combine_handler(job.combiner)
                        if poison is not None
                        else None
                    ),
                    encoded=encoded,
                )
            )
        return outputs


def shuffle_map_outputs(
    map_outputs: list[list[Partition]], num_reducers: int
) -> list[list[Partition]]:
    """Transpose per-map per-reducer outputs into per-reducer leaf lists.

    ``map_outputs[m][r]`` is Map task ``m``'s partition for reducer ``r``;
    the result's ``[r][m]`` preserves Map-task order, which contraction
    trees rely on for windowed slides.
    """
    per_reducer: list[list[Partition]] = [[] for _ in range(num_reducers)]
    for partitions in map_outputs:
        if len(partitions) != num_reducers:
            raise ValueError(
                f"map output has {len(partitions)} partitions, expected {num_reducers}"
            )
        for reducer_index, partition in enumerate(partitions):
            per_reducer[reducer_index].append(partition)
    return per_reducer
