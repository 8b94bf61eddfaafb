"""Partitioning and shuffle.

Map outputs are routed to reducer partitions by a hash partitioner (as in
Hadoop).  The shuffle groups one Map task's emissions into per-reducer
:class:`~repro.core.partition.Partition` objects — the leaves of the
contraction trees.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from typing import Any, Iterable

from repro.common.hashing import encode_key, hash_encoded
from repro.core.partition import Partition
from repro.mapreduce.job import MapReduceJob
from repro.telemetry import Phase, SpanKind, Telemetry


def _interned_strs_are_mortal() -> bool:
    """Whether ``sys.intern`` frees a str once nothing else holds it: true
    on CPython 3.11 and from 3.13; 3.12 made every interned str immortal
    (its reference count reads as about 2**32)."""
    probe = sys.intern("".join(("repro.", "mortality-probe")))
    return sys.getrefcount(probe) < 1 << 24


#: Whether a map task shares its str keys through ``sys.intern``: only
#: where an interned key that leaves every partition is freed, so that a
#: drifting key set stays bounded.
_INTERN_KEYS = _interned_strs_are_mortal()

#: Work units the shuffle charges per (key, value) pair a Map task emits.
SHUFFLE_COST_PER_PAIR = 0.05


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
) -> list[Partition]:
    """Run the Map function over a split and locally combine per reducer.

    Returns one Partition per reducer (possibly empty).  Charges map work
    (per record, at the job's compute intensity) and shuffle work (per
    emitted pair) to ``telemetry``, if given, inside one TASK span around
    the whole task (named ``label`` if given).

    The partitioner is asked once per distinct key, not per pair: keys equal
    as dict keys (``1``, ``1.0`` and ``True``) are one key to the task, as
    they are to every dict downstream, and go where the first of them went.
    It is handed the key's encoding, made once a task and only for the
    route (a leaf's uid is made where it is read).  An exact ``str`` key is
    replaced by ``sys.intern(key)`` where the task first meets it, so
    every leaf holds one object per distinct str key (a checkpoint writes
    it once, and a restore rebuilds it once); a str subclass, and every
    other key, is kept as emitted.

    A job that declares ``map_split_fn`` has its whole split mapped in one
    call; it yields, per record and in order, the pairs ``map_fn`` would,
    so both spellings feed the one loop below.  An exception ``map_fn``
    or ``map_split_fn`` raises propagates unchanged.
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
        # key -> that key's value list in its reducer's buffer.
        routed: dict[Any, list[Any]] = {}
        record_count = 0
        pair_count = 0
        if job.map_split_fn is not None:
            per_record = job.map_split_fn(records)
        else:
            per_record = map(job.map_fn, records)
        for pairs in per_record:
            record_count += 1
            for key, value in pairs:
                pair_count += 1
                values = routed.get(key)
                if values is None:
                    if type(key) is str and _INTERN_KEYS:
                        key = sys.intern(key)
                    buffer = buffers[partitioner.partition(key, encode_key(key))]
                    values = routed[key] = buffer[key] = []
                values.append(value)

        if telemetry is not None:
            telemetry.charge(Phase.MAP, record_count * job.costs.map_cost_per_record)
            telemetry.charge(Phase.SHUFFLE, pair_count * SHUFFLE_COST_PER_PAIR)

        return [
            Partition.from_value_lists(buffer, job.combiner) for buffer in buffers
        ]


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
