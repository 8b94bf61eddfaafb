"""Simulated cluster substrate (§6).

The paper runs on a 25-machine Hadoop cluster; this package replaces it with
a deterministic discrete-event simulation that models the pieces Slider's
architecture adds or depends on:

* machines with task slots and heterogeneous speeds (stragglers);
* schedulers — the vanilla Hadoop scheduler, a strict memoization-aware
  scheduler, and Slider's hybrid scheduler with straggler migration;
* an event-driven task-attempt executor with mid-wave fault tolerance:
  heartbeat-based crash detection and retries with exponential backoff;
* a chaos layer of declarative, seeded fault schedules (crashes,
  transient attempt failures, straggle episodes);
* the in-memory distributed memoization cache with its master index,
  fault-tolerant replicated persistence, shim I/O layer, and replica
  repair after crashes;
* a garbage collector dropping memoized state the window no longer uses.

A crash between runs is ``cluster.kill(m)`` followed by
``Slider.on_machine_failure(m)``.
"""

from repro.cluster.cache import (
    CacheConfig,
    DistributedMemoCache,
    GarbageCollector,
    ReadStats,
)
from repro.cluster.chaos import (
    ChaosPlan,
    ChaosSchedule,
    MachineCrash,
    StraggleEpisode,
    TransientFaults,
)
from repro.cluster.exec_types import (
    HEARTBEAT_TIMEOUT,
    MAX_ATTEMPTS,
    AttemptState,
    ExecutionReport,
    ExecutorHooks,
    RecoveryStats,
    TaskAttempt,
)
from repro.cluster.executor import execute_two_waves, execute_wave
from repro.cluster.machine import Cluster, ClusterConfig, Machine
from repro.cluster.scheduler import (
    HadoopScheduler,
    HybridScheduler,
    MemoizationScheduler,
    Scheduler,
    SimTask,
)
from repro.cluster.simulation import EventQueue, SimClock
from repro.cluster.waveexec import WaveExecutor

__all__ = [
    "CacheConfig",
    "DistributedMemoCache",
    "GarbageCollector",
    "ReadStats",
    "ChaosPlan",
    "ChaosSchedule",
    "MachineCrash",
    "StraggleEpisode",
    "TransientFaults",
    "HEARTBEAT_TIMEOUT",
    "MAX_ATTEMPTS",
    "AttemptState",
    "ExecutionReport",
    "ExecutorHooks",
    "RecoveryStats",
    "TaskAttempt",
    "WaveExecutor",
    "execute_wave",
    "execute_two_waves",
    "Cluster",
    "ClusterConfig",
    "Machine",
    "HadoopScheduler",
    "HybridScheduler",
    "MemoizationScheduler",
    "Scheduler",
    "SimTask",
    "EventQueue",
    "SimClock",
]
