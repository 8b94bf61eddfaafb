"""The persistent worker pool behind the multi-process execution backend.

One :class:`WorkerPool` owns N forked daemon processes, each holding one
end of a dedicated pipe.  Dispatch is one pickled payload per reducer;
results come back over the same pipe, so per-worker FIFO plus the
backend's reducer-ordered merge loop gives a deterministic receive order
without any sequencing metadata.

What crosses the seam.  A payload (:func:`build_payload`) is the tree's
:meth:`~repro.core.base.ContractionTree.state` — everything but its two
process-local collaborators, ``memo`` and ``executor`` — and the slide's
new leaves; a reply is the advanced state, the root and what the worker's
run logged — the charges, counters and spans its
:class:`~repro.telemetry.merge.CaptureTelemetry` captured and the one
list of its run's log records, each in order, for the parent to take
into its own run, which keeps the merged run bit-identical to an
in-process one (see :mod:`repro.telemetry.merge`).  A worker runs the
advance the way the engine would have: it opens its own plan steps.
Containers and scalars are always sent; one of the scalars is the tree's count
of the keys its node cache holds (``_cache_keys``), so whichever process
ran the advance kept it, and the cache itself stays a plain ``dict`` the
walker (:func:`~repro.core.partition.map_partitions`, the restore sweep's
too) recognises.  A partition is sent only when the receiver does not
hold it: each worker keeps, per reducer it serves, a
``uid -> Partition`` table of exactly the partitions in the state it
last returned, the parent keeps the matching table, and
:func:`encode_refs` marks the place of a partition that *is* the
sender's table entry and sends its uid (:func:`decode_refs` puts the
receiver's own object there).  A steady slide so sends the new leaves
one way and the nodes the advance combined the other.  Each message's
coding also builds the table the next one is coded against, so tables
are replaced, never appended to, and a first dispatch, or one after a
table was dropped, is the same code over an empty table.  The worker's
tree gets a fresh, empty memo table: the trees that dispatch keep their
node results by position, in the state that crosses, and never consult
it.

Failure ladder: a worker that dies or errors costs nothing but work —
the parent's trees are complete mirrors, so it falls back to executing
that reducer in-process and marks the pool broken so later runs stop
dispatching.
"""

from __future__ import annotations

import pickle
import weakref
from multiprocessing import get_context
from typing import TYPE_CHECKING, Any

from repro.core.execute import PlanExecutor
from repro.core.memo import MemoTable
from repro.core.partition import Partition, map_partitions
from repro.telemetry.merge import CaptureTelemetry

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.core.base import ContractionTree

_SHUTDOWN = b"\x00shutdown\x00"
#: Asks a worker how many partitions it holds per reducer (tests only).
_HELD_SIZES = b"\x00held\x00"


class HeldPartition:
    """In a coded message, the place of a partition the receiver holds.

    The class itself is the mark: pickle writes a class by name, in C,
    where an instance for each of a message's ~100 references costs a
    Python call apiece on both sides.  The uids of the marked places
    travel beside the message, in walk order.  A type of its own because
    tree state keeps ``int`` fields next to its partitions.
    """


#: uid -> partition: what one side holds of one reducer's tree.
Held = dict[int, Partition]


def held_table() -> Held:
    """A new table: every process holds the shared empty partition."""
    empty = Partition.empty()
    return {empty.uid: empty}


def encode_refs(value: Any, held: Held, sent: Held) -> tuple[Any, int, int]:
    """``value`` as it crosses the seam — ``(marked copy, uids of the
    marks)`` — and how many partitions went by reference and by value.

    By reference only when the partition *is* ``held``'s entry for its
    uid: a copy with the same uid and other entries (what
    :mod:`repro.recovery.repair` injects) travels in full, as it always
    did.  ``sent`` collects every partition met: what the receiver holds
    once it has decoded the message.
    """
    uids: list[int] = []
    values = 0

    def leaf(partition: Partition) -> Any:
        nonlocal values
        uid = partition.uid
        sent.setdefault(uid, partition)
        if held.get(uid) is partition:
            uids.append(uid)
            return HeldPartition
        values += 1
        return partition

    return (map_partitions(value, leaf), uids), len(uids), values


def decode_refs(coded: Any, held: Held, received: Held) -> tuple[Any, int, int]:
    """The inverse: each mark becomes ``held``'s own object (``KeyError``
    if it holds none); ``received`` collects like ``sent``."""
    marked, uids = coded
    next_uid = iter(uids).__next__
    values = 0

    def leaf(item: Any) -> Partition:
        nonlocal values
        if item is HeldPartition:
            item = held[next_uid()]
        else:
            values += 1
        received.setdefault(item.uid, item)
        return item

    return map_partitions(marked, leaf, HeldPartition), len(uids), values


def build_payload(
    tree: "ContractionTree",
    reducer: int,
    leaves: "list[Partition]",
    removed: int,
    label: str,
) -> dict[str, Any]:
    """Everything one worker needs to run ``tree.advance`` remotely."""
    return {
        "tree_class": type(tree),
        "state": tree.state(),
        "reducer": reducer,
        "leaves": leaves,
        "removed": removed,
        "label": label,
    }


def _execute_payload(
    payload: dict[str, Any], held: Held
) -> tuple[dict[str, Any], Held]:
    """Rebuild the tree around worker-local collaborators and advance it;
    returns the reply and what this worker then holds for the reducer."""
    received = held_table()
    (tree_state, leaves), _, _ = decode_refs(payload["coded"], held, received)
    telemetry = CaptureTelemetry(label=payload["label"])
    executor = PlanExecutor(telemetry)

    tree: "ContractionTree" = object.__new__(payload["tree_class"])
    tree.__dict__.update(tree_state)
    tree.executor = executor
    tree.memo = MemoTable()

    executor.begin_run(payload["label"])
    # Records carry the reducer, as they do in process.
    executor.reducer = payload["reducer"]
    root = tree.advance(leaves, payload["removed"])
    run = executor.end_run()

    # ``combiner`` ships out (the worker needs it) but never back (the
    # parent keeps its own instance).
    state = tree.state()
    del state["combiner"]
    returned = held_table()
    coded, _, _ = encode_refs((state, root), received, returned)
    return {
        "coded": coded,
        "events": telemetry.events,
        "spans": telemetry.root.children,
        "log": run.log.records,
    }, returned


def _worker_main(conn: Any) -> None:
    """The worker process loop: recv payload, execute, send result."""
    #: Per reducer, the partitions of the state last returned.  Popped
    #: for the run: a reducer whose run raised holds nothing.
    held: dict[int, Held] = {}
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            break
        if blob == _SHUTDOWN:
            break
        try:
            if blob == _HELD_SIZES:
                reply_value: Any = {r: len(t) for r, t in held.items()}
            else:
                payload = pickle.loads(blob)
                reducer = payload["reducer"]
                reply_value, held[reducer] = _execute_payload(
                    payload, held.pop(reducer, None) or held_table()
                )
            result: tuple[str, Any] = ("ok", reply_value)
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
    """N persistent forked workers, one duplex pipe each."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.broken = False
        ctx = get_context("fork")
        self.pipes = []
        self.procs = []
        for index in range(workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn,),
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

    def receive(self, worker: int) -> tuple[Any, int]:
        """Block for a worker's next result and its size in bytes; raises
        if the worker died or reported an error."""
        try:
            blob = self.pipes[worker].recv_bytes()
            status, value = pickle.loads(blob)
        except (EOFError, OSError) as exc:
            self.broken = True
            raise RuntimeError(f"worker {worker} died mid-task") from exc
        if status != "ok":
            raise RuntimeError(f"worker {worker} failed: {value}")
        return value, len(blob)

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
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
