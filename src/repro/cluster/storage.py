"""An HDFS-like replicated block store.

Input splits live as blocks replicated across machines; Map-task locality
("run the task where its block is") comes from here.  The placement policy
mirrors HDFS defaults: the first replica on a (stably) hashed home node,
the remaining replicas spread across distinct machines.  Machine failures
trigger re-replication onto survivors, keeping the replication factor as
long as enough machines remain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.machine import Cluster
from repro.common.errors import SchedulingError
from repro.common.hashing import stable_hash
from repro.mapreduce.types import Split
from repro.telemetry import Telemetry

#: Copies of each block, HDFS's default.
REPLICATION = 3


@dataclass
class BlockInfo:
    """Where one split's block currently lives."""

    split_uid: int
    size: float
    replicas: list[int] = field(default_factory=list)


class BlockStore:
    """Cluster-wide replicated storage of input splits."""

    def __init__(
        self,
        cluster: Cluster,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.cluster = cluster
        #: Telemetry backbone to emit replication events/counters into.
        self.telemetry = telemetry
        self._blocks: dict[int, BlockInfo] = {}
        #: Abstract bytes copied by re-replication after failures.
        self.repair_traffic = 0.0
        #: Map-locality outcomes of ``preferred_machine`` lookups.
        self.locality_hits = 0
        self.locality_misses = 0

    @property
    def locality_hit_rate(self) -> float:
        """Fraction of locality lookups that found an alive replica."""
        lookups = self.locality_hits + self.locality_misses
        return self.locality_hits / lookups if lookups else 0.0

    # -- writes -------------------------------------------------------------

    def store_split(self, split: Split) -> BlockInfo:
        """Place a split's block; idempotent for an already-stored split."""
        existing = self._blocks.get(split.uid)
        if existing is not None:
            return existing
        info = BlockInfo(split_uid=split.uid, size=float(len(split)))
        info.replicas = self._place(split.uid)
        self._blocks[split.uid] = info
        return info

    def store_all(self, splits) -> None:
        for split in splits:
            self.store_split(split)

    def drop_split(self, split_uid: int) -> None:
        self._blocks.pop(split_uid, None)

    # -- reads ---------------------------------------------------------------

    def replicas_of(self, split_uid: int) -> list[int]:
        info = self._blocks.get(split_uid)
        return list(info.replicas) if info else []

    def preferred_machine(self, split_uid: int) -> int | None:
        """The first *alive* replica holder — Map locality target."""
        for machine_id in self.replicas_of(split_uid):
            if self.cluster.machine(machine_id).alive:
                self.locality_hits += 1
                return machine_id
        self.locality_misses += 1
        return None

    def is_local(self, split_uid: int, machine_id: int) -> bool:
        return machine_id in self.replicas_of(split_uid)

    def blocks_on(self, machine_id: int) -> list[int]:
        return [
            uid
            for uid, info in self._blocks.items()
            if machine_id in info.replicas
        ]

    def total_blocks(self) -> int:
        return len(self._blocks)

    def stored_bytes(self) -> float:
        return sum(info.size * len(info.replicas) for info in self._blocks.values())

    # -- failure handling ------------------------------------------------------

    def on_machine_failure(self, machine_id: int) -> int:
        """Re-replicate blocks that lost a replica; returns how many."""
        repaired = 0
        for info in self._blocks.values():
            if machine_id not in info.replicas:
                continue
            info.replicas.remove(machine_id)
            replacement = self._pick_new_replica(info)
            if replacement is not None:
                info.replicas.append(replacement)
                self.repair_traffic += info.size
                repaired += 1
                if self.telemetry is not None:
                    self.telemetry.count("storage.repair_traffic", delta=info.size)
        if self.telemetry is not None and repaired:
            self.telemetry.instant(
                "storage.re_replicate", machine=machine_id, blocks=repaired
            )
        return repaired

    # -- placement ----------------------------------------------------------------

    def _place(self, split_uid: int) -> list[int]:
        alive = [m.machine_id for m in self.cluster.alive_machines()]
        count = min(REPLICATION, len(alive))
        home_index = stable_hash(split_uid, salt="block-home") % len(alive)
        replicas = []
        for offset in range(count):
            replicas.append(alive[(home_index + offset) % len(alive)])
        return replicas

    def _pick_new_replica(self, info: BlockInfo) -> int | None:
        try:
            alive = [m.machine_id for m in self.cluster.alive_machines()]
        except SchedulingError:
            return None
        candidates = [m for m in alive if m not in info.replicas]
        if not candidates:
            return None
        index = stable_hash(
            (info.split_uid, tuple(info.replicas)), salt="rereplica"
        ) % len(candidates)
        return candidates[index]
