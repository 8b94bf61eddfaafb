"""The persistent worker pool behind the multi-process execution backend.

One :class:`WorkerPool` owns N forked daemon processes, each holding one
end of a dedicated pipe.  Workers are forked *after* the parent created
the :class:`~repro.core.sharedmem.SharedMemoStore`, so the segment and
its lock arrive by inheritance — no attach-by-name, no Manager proxies.
Dispatch is one pickled payload per reducer; results come back over the
same pipe, so per-worker FIFO plus the backend's reducer-ordered merge
loop gives a deterministic receive order without any sequencing
metadata.

The payload protocol (:func:`build_payload` → :func:`_execute_payload`)
ships a contraction tree by *state*, not by reference: the tree's
``__dict__`` minus its process-local collaborators (meter, memo table,
executor).  The worker rebuilds those around its own
:class:`~repro.telemetry.merge.CaptureTelemetry` — charges, counters,
spans, task-graph nodes, and probe events are all captured in order and
shipped back for the parent to replay, which is what keeps the merged
run bit-identical to an in-process one (see
:mod:`repro.telemetry.merge`).  The memo table is rebuilt over the
fork-inherited shared store's namespace for that reducer, so memo hits
and misses resolve against exactly the state the parent sees.

Failure ladder: a worker that dies or errors costs nothing but work —
the parent falls back to executing that reducer in-process (the shared
store's writes are content-addressed and idempotent, so a half-finished
worker leaves no wrong state, only warm cache) and marks the pool
broken so later runs stop dispatching.
"""

from __future__ import annotations

import pickle
import weakref
from multiprocessing import get_context
from typing import TYPE_CHECKING, Any

from repro.core.execute import PlanExecutor
from repro.core.memo import MemoStats, MemoTable
from repro.core.sharedmem import SharedMemoStore
from repro.metrics import WorkMeter
from repro.telemetry.merge import CaptureTelemetry

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.core.base import ContractionTree
    from repro.core.compile.compiler import CompiledPlan
    from repro.core.partition import Partition

_SHUTDOWN = b"\x00shutdown\x00"

#: Tree attributes that are process-local collaborators, rebuilt worker-
#: side, never shipped.  ``combiner`` ships out (the worker needs it) but
#: never back (the parent keeps its own instance).
_LOCAL_ATTRS = ("meter", "memo", "executor")


class _ProbeCapture:
    """Worker-side stand-in for the executor's dynamic-analysis probe.

    Records ``on_step`` events in execution order so the parent can
    replay them into its real probe (when one is attached) — this is how
    the vector-clock cross-check observes real worker processes.
    """

    def __init__(self) -> None:
        self.events: list[tuple[str, dict[str, Any]]] = []

    def on_begin_run(self, label: str) -> None:
        # The parent's probe already saw the run begin; don't replay it.
        pass

    def on_step(self, op: str, **kwargs: Any) -> None:
        self.events.append((op, kwargs))


def build_payload(
    tree: "ContractionTree",
    reducer: int,
    leaves: "list[Partition]",
    removed: int,
    template: "CompiledPlan",
    externals: list[tuple[int, int]],
    label: str,
) -> dict[str, Any]:
    """Everything one worker needs to run ``tree.advance`` remotely."""
    state = {
        key: value
        for key, value in tree.__dict__.items()
        if key not in _LOCAL_ATTRS
    }
    return {
        "tree_class": type(tree),
        "state": state,
        "reducer": reducer,
        "leaves": leaves,
        "removed": removed,
        "template": template,
        "externals": externals,
        "label": label,
        "verify_mode": tree.memo.verify_mode,
        "capacity": tree.memo.capacity,
        "tainted": set(tree.memo._tainted),
    }


def _execute_payload(
    payload: dict[str, Any], store: SharedMemoStore
) -> dict[str, Any]:
    """Rebuild the tree around worker-local collaborators and advance it."""
    telemetry = CaptureTelemetry(label=payload["label"])
    meter = WorkMeter(telemetry=telemetry)
    executor = PlanExecutor(meter=meter)
    probe = _ProbeCapture()

    tree: "ContractionTree" = object.__new__(payload["tree_class"])
    tree.__dict__.update(payload["state"])
    tree.meter = meter
    tree.executor = executor
    tree.memo = MemoTable(
        entries=store.namespace(payload["reducer"]),
        stats=MemoStats(),
        telemetry=telemetry,
        verify_mode=payload["verify_mode"],
        capacity=payload["capacity"],
    )
    tree.memo._tainted = set(payload["tainted"])

    executor.begin_run(payload["label"], compiled=payload["template"])
    # Attach the probe only after begin_run: the parent's probe already
    # observed this run's begin event.
    executor.probe = probe
    graph = executor.recorder.graph
    assert graph is not None
    graph.allow_external = True
    for content_uid, parent_uid in payload["externals"]:
        graph.seed_external_producer(content_uid, parent_uid)

    root = tree.advance(payload["leaves"], payload["removed"])
    run = executor.end_run()

    state = {
        key: value
        for key, value in tree.__dict__.items()
        if key not in _LOCAL_ATTRS and key != "combiner"
    }
    return {
        "root": root,
        "state": state,
        "events": telemetry.events,
        "spans": telemetry.root.children,
        "graph": run.graph,
        "memo_stats": tree.memo.stats,
        "tainted": set(tree.memo._tainted),
        "probe_events": probe.events,
    }


def _worker_main(conn: Any, store: SharedMemoStore) -> None:
    """The worker process loop: recv payload, execute, send result."""
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            break
        if blob == _SHUTDOWN:
            break
        try:
            payload = pickle.loads(blob)
            result: tuple[str, Any] = ("ok", _execute_payload(payload, store))
        except Exception as exc:  # noqa: BLE001 - errors travel to the parent
            result = ("error", f"{type(exc).__name__}: {exc}")
        try:
            reply = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - unpicklable result payload
            reply = pickle.dumps(
                ("error", f"unpicklable result: {type(exc).__name__}: {exc}"),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        try:
            conn.send_bytes(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class WorkerPool:
    """N persistent forked workers over one inherited shared memo store."""

    def __init__(self, workers: int, store: SharedMemoStore) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.store = store
        self.broken = False
        ctx = get_context("fork")
        self.pipes = []
        self.procs = []
        for index in range(workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, store),
                daemon=True,
                name=f"repro-worker-{index}",
            )
            proc.start()
            child_conn.close()
            self.pipes.append(parent_conn)
            self.procs.append(proc)
        self._finalizer = weakref.finalize(
            self, _shutdown, list(self.pipes), list(self.procs)
        )

    def __len__(self) -> int:
        return len(self.procs)

    def submit(self, worker: int, blob: bytes) -> None:
        """Queue one pre-pickled payload on a worker's pipe."""
        try:
            self.pipes[worker].send_bytes(blob)
        except (BrokenPipeError, OSError) as exc:
            self.broken = True
            raise RuntimeError(f"worker {worker} is gone") from exc

    def receive(self, worker: int) -> Any:
        """Block for the next result from a worker; raises if it died."""
        try:
            status, value = pickle.loads(self.pipes[worker].recv_bytes())
        except (EOFError, OSError) as exc:
            self.broken = True
            raise RuntimeError(f"worker {worker} died mid-task") from exc
        if status != "ok":
            raise RuntimeError(f"worker {worker} failed: {value}")
        return value

    def close(self) -> None:
        """Shut the workers down (idempotent); the store stays up."""
        self._finalizer()


def _shutdown(pipes: list, procs: list) -> None:
    for pipe in pipes:
        try:
            pipe.send_bytes(_SHUTDOWN)
        except Exception:
            pass
    # A worker that has not gone a second after each request is sent the
    # next stronger one, and every one is waited for: none is left
    # running or as a zombie of this process.
    for proc in procs:
        try:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            proc.close()
        except ValueError:
            continue  # already closed elsewhere
    for pipe in pipes:
        try:
            pipe.close()
        except Exception:
            pass
