"""The persistent worker pool behind the multi-process execution backend.

One :class:`WorkerPool` owns N forked daemon processes, each holding one
end of a dedicated pipe.  Dispatch is one pickled payload per reducer;
results come back over the same pipe, so per-worker FIFO plus the
backend's reducer-ordered merge loop gives a deterministic receive order
without any sequencing metadata.

Resident trees.  A worker keeps each reducer's tree it serves from one
dispatch to the next, and the parent's own tree of that reducer is its
*mirror*: the backend snapshots it (:func:`snapshot`) at each merge, and
while the mirror still equals that snapshot the payload is only the
slide's new leaves, ``removed`` and the label.  Any other dispatch
*re-seeds* the worker: the payload also carries the tree's class and
whole :meth:`~repro.core.base.ContractionTree.state`, the combiner
included.  A worker runs the advance the way the engine would have (it
opens its own plan steps) and replies with the root, what its run logged
(the charges, counters and level marks' opens and
closes its :class:`~repro.telemetry.merge.CaptureTelemetry` captured,
then its run's log records, each in order, for the parent to replay
into its own run, which keeps the merged run bit-identical to an
in-process one; see :mod:`repro.telemetry.merge`) and the *state delta*
(:func:`state_delta`): the fields the run changed and, for a list or dict
field it changed in place, only the changed slots.

One by-reference mechanism codes both directions (:func:`encode_refs`,
:func:`decode_refs`).  A partition the receiver already holds travels as
its *place* there: an index into the message's new leaves, ``None`` for
the shared empty partition, or a path of field names, list indexes and
dict keys into the tree the receiver held before the message
(:func:`places_of`).  A reply so sends by value only the partitions the
run produced; the new leaves and the nodes a fold only moved come back as
the parent's own objects, and a re-seed is coded against the tree the
worker still holds.  The worker's tree keeps a memo table of its own: the
trees that dispatch keep their node results by position, in their state,
and never consult it.

Failure ladder: a worker that dies or errors costs nothing but work —
the parent's trees are complete mirrors, so it falls back to executing
that reducer in-process and marks the pool broken so later runs stop
dispatching.  A worker drops a reducer's tree when a run of it raises, so
a later steady payload for it raises too (``KeyError``) and takes the
same path.
"""

from __future__ import annotations

import copy
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
#: Asks a worker for the fields of every tree it holds (tests only).
_RESIDENT = b"\x00resident\x00"
_MISSING = object()


class HeldPartition:
    """In a coded message, the place of a partition the receiver holds.

    The class itself is the mark: pickle writes a class by name, in C,
    where an instance for each reference costs a Python call apiece on
    both sides.  The places of the marks travel beside the message, in
    walk order.  A type of its own because tree state keeps ``int``
    fields next to its partitions.
    """


def tree_fields(tree: "ContractionTree") -> dict[str, Any]:
    """What a run changes of ``tree``: its state without the combiner,
    which the worker holds from its seed and never sends back."""
    state = tree.state()
    del state["combiner"]
    return state


def snapshot(fields: dict[str, Any]) -> dict[str, Any]:
    """``fields`` as they stand, ``==`` to them until one changes: list
    and dict fields are copied one level deep and an object with a
    ``__dict__`` (``TreeStats``) is copied.  Nested containers are
    compared by their items, so every variant replaces, never mutates in
    place, a list or tuple it keeps inside another."""
    frozen = {}
    for name, value in fields.items():
        kind = type(value)
        if kind is list or kind is dict:
            frozen[name] = kind(value)
        elif hasattr(value, "__dict__"):
            frozen[name] = copy.copy(value)
        else:
            frozen[name] = value
    return frozen


def state_delta(
    held: dict[str, Any], before: dict[str, Any], after: dict[str, Any]
) -> tuple:
    """What a run that began on the fields ``held`` (``before`` is their
    :func:`snapshot`) changed to leave ``after``: ``(whole, lists,
    dicts)``.  ``whole`` maps a replaced or new field to its value;
    ``lists`` a list field changed in place to ``(length, {index:
    item})`` and ``dicts`` a dict field to ``({key: item}, [removed
    keys])``, each of only the slots whose item is another object.  No
    variant's run deletes a field."""
    whole: dict[str, Any] = {}
    lists: dict[str, tuple] = {}
    dicts: dict[str, tuple] = {}
    for name, value in after.items():
        old = before.get(name, _MISSING)
        kind = type(value)
        if value is held.get(name) and (kind is list or kind is dict):
            if kind is list:
                slots = {
                    index: item
                    for index, item in enumerate(value)
                    if index >= len(old) or item is not old[index]
                }
                if slots or len(value) != len(old):
                    lists[name] = (len(value), slots)
            else:
                changed = {
                    key: item
                    for key, item in value.items()
                    if old.get(key, _MISSING) is not item
                }
                removed = [key for key in old if key not in value]
                if changed or removed:
                    dicts[name] = (changed, removed)
        elif value is not old and (kind is Partition or old != value):
            whole[name] = value
    return whole, lists, dicts


def apply_delta(fields: dict[str, Any], delta: tuple) -> None:
    """Bring ``fields`` (a tree's ``__dict__``), which held what the run
    began on, to where the run left its own: the inverse of
    :func:`state_delta`."""
    whole, lists, dicts = delta
    fields.update(whole)
    for name, (length, slots) in lists.items():
        items = fields[name]
        del items[length:]
        items.extend([None] * (length - len(items)))
        for index, item in slots.items():
            items[index] = item
    for name, (changed, removed) in dicts.items():
        items = fields[name]
        for key in removed:
            del items[key]
        items.update(changed)


def places_of(
    fields: dict[str, Any], leaves: "list[Partition]" = ()
) -> dict[int, Any]:
    """Where the receiver of a message holds each partition the sender
    can send by reference: ``id`` -> the path to it in ``fields``, then
    ``None`` for the shared empty partition, then its index in
    ``leaves``.  The objects must outlive the coding (``fields`` holds
    them)."""
    places: dict[int, Any] = {}

    def walk(value: Any, path: tuple) -> None:
        kind = type(value)
        if kind is dict:
            items: Any = value.items()
        elif kind is list or kind is tuple:
            items = enumerate(value)
        else:
            return
        for key, item in items:
            kind = type(item)
            if kind is Partition:
                places[id(item)] = path + (key,)
            elif kind is list or kind is tuple or kind is dict:
                walk(item, path + (key,))

    walk(fields, ())
    places[id(Partition.empty())] = None
    places.update((id(leaf), index) for index, leaf in enumerate(leaves))
    return places


def encode_refs(value: Any, places: dict[int, Any]) -> tuple[Any, int, int]:
    """``value`` as it crosses the seam — ``(marked copy, places of the
    marks)`` — and how many partitions went by reference and by value.

    By reference only when ``places`` has the very object: a copy with
    the same uid and other entries travels in full.
    """
    where: list[Any] = []
    values = 0

    def leaf(partition: Partition) -> Any:
        nonlocal values
        place = places.get(id(partition), _MISSING)
        if place is _MISSING:
            values += 1
            return partition
        where.append(place)
        return HeldPartition

    return (map_partitions(value, leaf), where), len(where), values


def decode_refs(
    coded: Any, fields: dict[str, Any], leaves: "list[Partition]" = ()
) -> tuple[Any, int, int]:
    """The inverse: each mark becomes the receiver's own partition at its
    place in ``fields`` or ``leaves`` (``LookupError`` if it holds none
    there)."""
    marked, where = coded
    next_place = iter(where).__next__
    values = 0

    def leaf(item: Any) -> Partition:
        nonlocal values
        if item is not HeldPartition:
            values += 1
            return item
        place = next_place()
        if place is None:
            return Partition.empty()
        if type(place) is int:
            return leaves[place]
        held: Any = fields
        for key in place:
            held = held[key]
        if type(held) is not Partition:
            raise LookupError(f"no partition at {place!r}")
        return held

    return map_partitions(marked, leaf, HeldPartition), len(where), values


def _execute_payload(
    payload: dict[str, Any], tree: "ContractionTree | None"
) -> tuple[dict[str, Any], "ContractionTree"]:
    """Advance the reducer's resident tree (first re-seeded, if the
    payload carries a seed) around a fresh executor; returns the reply
    and the tree this worker then holds."""
    reducer = payload["reducer"]
    seed = payload.get("seed")
    if seed is not None:
        tree_class, coded = seed
        state, _, _ = decode_refs(coded, vars(tree) if tree is not None else {})
        tree = object.__new__(tree_class)
        tree.__dict__.update(state)
        tree.memo = MemoTable()
    elif tree is None:
        raise KeyError(f"no tree held for reducer {reducer}")
    telemetry = CaptureTelemetry(label=payload["label"])
    executor = PlanExecutor(telemetry)
    tree.executor = executor
    held = tree_fields(tree)
    before = snapshot(held)

    executor.begin_run(payload["label"])
    # Records carry the reducer, as they do in process.
    executor.reducer = reducer
    leaves = payload["leaves"]
    root = tree.advance(leaves, payload["removed"])
    run = executor.end_run()

    delta = state_delta(held, before, tree_fields(tree))
    coded, _, _ = encode_refs((root, delta), places_of(before, leaves))
    return {
        "coded": coded,
        "events": telemetry.events,
        "log": run.log.records,
    }, tree


def _worker_main(conn: Any) -> None:
    """The worker process loop: recv payload, execute, send result."""
    #: Per reducer, the tree this worker keeps.  Popped for the run: a
    #: reducer whose run raised holds nothing.
    trees: dict[int, "ContractionTree"] = {}
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            break
        if blob == _SHUTDOWN:
            break
        try:
            if blob == _RESIDENT:
                reply_value: Any = {r: tree_fields(t) for r, t in trees.items()}
            else:
                payload = pickle.loads(blob)
                reducer = payload["reducer"]
                reply_value, trees[reducer] = _execute_payload(
                    payload, trees.pop(reducer, None)
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
        try:
            for index in range(workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                self.pipes.append(parent_conn)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn,),
                    daemon=True,
                    name=f"repro-worker-{index}",
                )
                try:
                    proc.start()
                finally:
                    child_conn.close()
                self.procs.append(proc)
        except BaseException:
            # A worker already started holds, from the fork, the parent's
            # end of its own pipe, so it would never see EOF.
            _shutdown(self.pipes, self.procs)
            raise
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
