"""The distributed memoization layer (§6).

Three cooperating pieces, mirroring Figure 6:

* an **in-memory distributed cache**: each worker holds memoized partitions
  in RAM; a master index maps content ids to owner machines;
* a **fault-tolerant memoization layer**: every stored object is also
  replicated to the persistent stores of two machines, so a crash costs a
  slower read instead of a recomputation;
* a **shim I/O layer**: reads go to memory when possible and transparently
  fall back to a persistent replica, accumulating the read-time statistics
  that Table 2 reports;
* a **garbage collector** at the master that drops objects that fell out of
  the current window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.machine import Cluster
from repro.common.hashing import stable_hash
from repro.core.partition import Partition
from repro.telemetry import Telemetry


@dataclass(frozen=True)
class CacheConfig:
    """Cost knobs for the shim I/O layer (abstract seconds per object size).

    ``lookup_overhead`` is the fixed per-read cost of consulting the master
    index, paid regardless of which layer serves the object — it is why
    small-object reads benefit less from in-memory caching than large-object
    reads (Table 2's per-application spread).
    """

    memory_read_cost: float = 0.0015
    disk_read_cost: float = 0.003
    network_read_cost: float = 0.002
    lookup_overhead: float = 0.005
    replicas: int = 2
    in_memory_enabled: bool = True


@dataclass
class ReadStats:
    """Where reads were served from, and the simulated time they took.

    Re-replication traffic (``repair()``) is charged into ``read_time``
    alongside the reads themselves, so Table 2's read-time column shows
    the full cost of keeping memoized state durable.
    """

    memory_reads: int = 0
    fallback_reads: int = 0
    misses: int = 0
    read_time: float = 0.0
    repaired_objects: int = 0
    repair_bytes: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from memory; 0.0 before any lookup."""
        lookups = self.memory_reads + self.fallback_reads + self.misses
        return self.memory_reads / lookups if lookups else 0.0


class DistributedMemoCache:
    """Cluster-wide memoization store with master index and replicas.

    A tree's :class:`~repro.core.memo.MemoTable` is backed by it through
    :meth:`fetch` / :meth:`put` / :meth:`delete`: local tree misses fall
    through to this layer, and stores write through to it.
    """

    def __init__(
        self,
        cluster: Cluster,
        config: CacheConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or CacheConfig()
        #: Telemetry backbone to mirror hit/miss/repair counters into.
        self.telemetry = telemetry
        #: Per-machine in-memory stores: machine_id -> {uid: partition}.
        self._memory: dict[int, dict[int, Partition]] = {
            m.machine_id: {} for m in cluster.machines
        }
        #: Per-machine persistent stores (survive crashes).
        self._disk: dict[int, dict[int, Partition]] = {
            m.machine_id: {} for m in cluster.machines
        }
        #: Master index: uid -> owner machine id.
        self._index: dict[int, int] = {}
        self.stats = ReadStats()

    # -- placement ---------------------------------------------------------

    def owner_of(self, uid: int) -> int | None:
        """The machine currently owning ``uid`` in memory (if any)."""
        return self._index.get(uid)

    def _place(self, uid: int) -> int:
        alive = self.cluster.alive_machines()
        return alive[stable_hash(uid, salt="place") % len(alive)].machine_id

    def _replica_machines(self, uid: int, owner: int) -> list[int]:
        machines = [m.machine_id for m in self.cluster.machines]
        replicas: list[int] = []
        cursor = stable_hash(uid, salt="replica") % len(machines)
        while len(replicas) < min(self.config.replicas, len(machines)):
            candidate = machines[cursor % len(machines)]
            if candidate != owner and candidate not in replicas:
                replicas.append(candidate)
            cursor += 1
        return replicas

    # -- what a MemoTable calls --------------------------------------------

    def put(self, uid: int, value: Partition) -> None:
        owner = self._place(uid)
        if self.config.in_memory_enabled:
            self._memory[owner][uid] = value
        self._index[uid] = owner
        for replica in self._replica_machines(uid, owner):
            self._disk[replica][uid] = value

    def fetch(self, uid: int) -> Partition | None:
        owner = self._index.get(uid)
        if owner is not None and self.cluster.machine(owner).alive:
            found = self._memory[owner].get(uid)
            if found is not None:
                self.stats.memory_reads += 1
                self.stats.read_time += (
                    self.config.lookup_overhead
                    + self.config.memory_read_cost * max(1, len(found))
                )
                if self.telemetry is not None:
                    self.telemetry.count("cache.memory_reads")
                return found
        # Fall back to a persistent replica on any alive machine.
        for machine in self.cluster.machines:
            if not machine.alive:
                continue
            found = self._disk[machine.machine_id].get(uid)
            if found is not None:
                self.stats.fallback_reads += 1
                self.stats.read_time += self.config.lookup_overhead + (
                    self.config.disk_read_cost + self.config.network_read_cost
                ) * max(1, len(found))
                if self.telemetry is not None:
                    self.telemetry.count("cache.fallback_reads")
                # Promote back into memory for future reads.
                if self.config.in_memory_enabled:
                    new_owner = self._place(uid)
                    self._memory[new_owner][uid] = found
                    self._index[uid] = new_owner
                return found
        self.stats.misses += 1
        if self.telemetry is not None:
            self.telemetry.count("cache.misses")
        return None

    def delete(self, uid: int) -> None:
        owner = self._index.pop(uid, None)
        if owner is not None:
            self._memory[owner].pop(uid, None)
        for store in self._memory.values():
            store.pop(uid, None)
        for store in self._disk.values():
            store.pop(uid, None)

    # -- fault handling ------------------------------------------------------

    def on_machine_failure(self, machine_id: int) -> int:
        """Drop the in-memory contents of a crashed machine.

        Persistent replicas survive, so subsequent fetches succeed via the
        fallback path.  Returns how many in-memory objects were lost.
        """
        lost = len(self._memory[machine_id])
        self._memory[machine_id] = {}
        return lost

    def repair(self) -> float:
        """Re-replicate persisted objects that lost disk copies.

        After a crash the objects whose replica set intersected the dead
        machine are under-replicated; the master copies each from a
        surviving replica onto fresh alive machines (walking the same
        stable replica ring as initial placement).  Copy traffic is
        charged to the read-time stats — one disk read plus a network
        transfer per copy — so recovery cost shows up in Table 2.
        Returns the abstract bytes copied.
        """
        alive = {m.machine_id for m in self.cluster.machines if m.alive}
        machines = [m.machine_id for m in self.cluster.machines]
        target = min(self.config.replicas, len(alive))
        holders: dict[int, list[int]] = {}
        for machine_id, store in self._disk.items():
            for uid in store:
                holders.setdefault(uid, []).append(machine_id)
        copied = 0.0
        for uid in sorted(holders):
            live_holders = sorted(m for m in holders[uid] if m in alive)
            if not live_holders or len(live_holders) >= target:
                continue
            value = self._disk[live_holders[0]][uid]
            size = max(1.0, float(len(value)))
            cursor = stable_hash(uid, salt="replica") % len(machines)
            needed = target - len(live_holders)
            for _ in range(2 * len(machines)):
                if needed <= 0:
                    break
                candidate = machines[cursor % len(machines)]
                cursor += 1
                if candidate not in alive or candidate in live_holders:
                    continue
                self._disk[candidate][uid] = value
                live_holders.append(candidate)
                self.stats.repaired_objects += 1
                self.stats.repair_bytes += size
                self.stats.read_time += self.config.lookup_overhead + (
                    self.config.disk_read_cost + self.config.network_read_cost
                ) * size
                copied += size
                needed -= 1
        if self.telemetry is not None and copied:
            self.telemetry.count("cache.repair_bytes", delta=copied)
            self.telemetry.instant("cache.repair", bytes=copied)
        return copied

    # -- accounting ----------------------------------------------------------

    def total_objects(self) -> int:
        return len(self._index)

    def space(self) -> float:
        """Abstract size of all stored objects (memory + unique disk copies)."""
        seen: set[int] = set()
        size = 0.0
        for store in list(self._memory.values()) + list(self._disk.values()):
            for uid, value in store.items():
                if uid not in seen:
                    seen.add(uid)
                    size += max(1.0, float(len(value)))
        return size


@dataclass
class GarbageCollector:
    """Master-side GC over a DistributedMemoCache (§6).

    ``collect(live)`` drops everything outside the live set — the default
    policy of freeing objects that fell out of the current window.
    """

    cache: DistributedMemoCache
    collected: int = 0

    def collect(self, live_uids: set[int]) -> int:
        """Drop all objects not in ``live_uids``; returns how many."""
        dead = [uid for uid in list(self.cache._index) if uid not in live_uids]
        for uid in dead:
            self.cache.delete(uid)
        self.collected += len(dead)
        if self.cache.telemetry is not None and dead:
            self.cache.telemetry.count("cache.evictions", delta=len(dead))
        return len(dead)
