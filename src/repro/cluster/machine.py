"""Machines and cluster configuration.

Mirrors the paper's testbed shape (§7.1): a master plus worker machines,
each with task slots, running one work unit a second.  Stragglers run at a
straggle factor of that speed, chosen deterministically from the cluster
RNG so experiments are reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from repro.common.errors import SchedulingError
from repro.common.rng import RngStream

#: Speed multiplier applied to straggler machines.
STRAGGLER_SLOWDOWN = 0.5
#: Seconds to move one abstract byte across the network.
NETWORK_COST_PER_BYTE = 0.002


@dataclass
class Machine:
    """One worker: ``slots`` task slots at one work unit a second times ``straggle``."""

    machine_id: int
    slots: int = 2
    alive: bool = True
    #: Multiplier < 1 models a temporarily overloaded (straggler) node.
    straggle: float = 1.0

    def duration_for(self, cost: float) -> float:
        """Seconds to execute ``cost`` work units on this machine."""
        if not self.alive:
            raise SchedulingError(f"machine {self.machine_id} is dead")
        return cost / self.straggle


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs shaping the simulated cluster."""

    num_machines: int = 24
    slots_per_machine: int = 2
    #: Fraction of machines that are stragglers in a given run.
    straggler_fraction: float = 0.08
    seed: int = 42


class Cluster:
    """A set of machines plus the shared cost parameters."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        if self.config.num_machines <= 0:
            raise SchedulingError("cluster needs at least one machine")
        self.machines = [
            Machine(machine_id=i, slots=self.config.slots_per_machine)
            for i in range(self.config.num_machines)
        ]
        self._rng = RngStream(self.config.seed, "cluster")
        self.assign_stragglers()

    # -- membership --------------------------------------------------------

    def alive_machines(self) -> list[Machine]:
        alive = [m for m in self.machines if m.alive]
        if not alive:
            raise SchedulingError("no alive machines in the cluster")
        return alive

    def machine(self, machine_id: int) -> Machine:
        self._check_id(machine_id)
        return self.machines[machine_id]

    def kill(self, machine_id: int) -> None:
        self._check_id(machine_id)
        if not self.machines[machine_id].alive:
            warnings.warn(
                f"kill({machine_id}): machine is already dead",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        self.machines[machine_id].alive = False

    def revive(self, machine_id: int) -> None:
        self._check_id(machine_id)
        if self.machines[machine_id].alive:
            warnings.warn(
                f"revive({machine_id}): machine is already alive",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        self.machines[machine_id].alive = True

    def _check_id(self, machine_id: int) -> None:
        if not isinstance(machine_id, int) or not (
            0 <= machine_id < len(self.machines)
        ):
            raise SchedulingError(
                f"unknown machine id {machine_id!r} "
                f"(cluster has machines 0..{len(self.machines) - 1})"
            )

    def __len__(self) -> int:
        return len(self.machines)

    # -- stragglers --------------------------------------------------------

    def assign_stragglers(self) -> list[int]:
        """(Re)sample which machines straggle this run; returns their ids.

        Dead machines are skipped: they cannot run tasks, so marking them
        as stragglers would silently waste the straggler budget.
        """
        for machine in self.machines:
            machine.straggle = 1.0
        candidates = [m.machine_id for m in self.machines if m.alive]
        count = int(round(self.config.straggler_fraction * len(self.machines)))
        count = min(count, len(candidates))
        if count == 0:
            return []
        chosen = self._rng.choice(candidates, size=count, replace=False)
        ids = [int(i) for i in chosen]
        for machine_id in ids:
            self.machines[machine_id].straggle = STRAGGLER_SLOWDOWN
        return ids
