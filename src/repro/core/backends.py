"""The execution-backend seam: who runs a run's contraction pass, where.

Everything below the seam is unchanged substrate — planners emit steps,
the :class:`~repro.core.execute.PlanExecutor` resolves them, the memo
table absorbs results.  The seam decides *which process* does that for
each reducer's contraction:

* :class:`InProcessBackend` — the default: every reducer advances in the
  engine's process, exactly the historical path, bit for bit.
* :class:`ProcessBackend` — advances the lowest-numbered
  :func:`parent_share` of the reducers itself and dispatches each other
  reducer's certified contraction pass to a persistent forked worker,
  which keeps that reducer's tree between dispatches
  (:mod:`repro.core.parallel`), then merges the results back in reducer
  order so outputs, work breakdowns, span trees, the run's log and
  counters are bit-identical to the in-process run.  The parent's own
  trees stay complete mirrors: a steady dispatch sends the slide and
  takes back the state delta.

Dispatch is gated, not assumed — the parallel-safety analysis (PR 9)
becomes a *runtime* precondition here.  A run dispatches only when every
rung of the ladder holds; any miss falls back to in-process for the run
or the reducer, with a telemetry trace of why:

1. the engine has been in this structural state before (the run was
   opened ``recurring``: a first visit and a variant whose structure
   depends on window content stay local);
2. the (variant, window-mode) pair holds a green
   ``parallel-safety-certificate/v2`` (the frozen allowlist below is
   tied to the live ``repro.analysis.shared`` certification by test);
3. no cluster simulation (its cache layer is a process-local handle);
4. per reducer: the payload pickles.

This module lives in ``repro.core`` and therefore never imports the
slider layer; the engine reaches it duck-typed, the same contract the
planner and time simulator already follow.
"""

from __future__ import annotations

import pickle
from collections import Counter
from typing import TYPE_CHECKING, Any

from repro.core.parallel import (
    WorkerPool,
    apply_delta,
    decode_refs,
    encode_refs,
    places_of,
    snapshot,
    tree_fields,
)
from repro.telemetry import SpanKind
from repro.telemetry.merge import replay_events

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.core.base import ContractionTree
    from repro.core.partition import Partition

#: Execution backend names SliderConfig accepts.
EXECUTION_BACKENDS = ("inprocess", "process")

#: (tree variant, window mode) pairs holding a green
#: ``parallel-safety-certificate/v2``: the list
#: :mod:`repro.analysis.shared` certifies and this backend dispatches.  A
#: blocking test asserts certification still passes for each, so a variant
#: losing its certificate fails CI before this backend can dispatch it.
CERTIFIED_PARALLEL_VARIANTS = (
    ("folding", "variable"),
    ("randomized", "variable"),
    ("strawman", "variable"),
    ("rotating", "fixed"),
    ("coalescing", "append"),
)


class ExecutionBackend:
    """Where a run's per-reducer contraction work executes."""

    name = "abstract"

    def contract(
        self,
        engine: Any,
        per_reducer: "list[list[Partition]]",
        removed: int,
    ) -> "list[Partition]":
        """Advance every tree for one window slide; returns the roots."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the worker pool (idempotent)."""


def _advance_inprocess(
    engine: Any, per_reducer: "list[list[Partition]]", removed: int
) -> "list[Partition]":
    return engine.planner.advance_trees(
        lambda r, tree: tree.advance(per_reducer[r], removed)
    )


class InProcessBackend(ExecutionBackend):
    """The historical single-process path — the bit-identical default."""

    name = "inprocess"

    def contract(
        self,
        engine: Any,
        per_reducer: "list[list[Partition]]",
        removed: int,
    ) -> "list[Partition]":
        return _advance_inprocess(engine, per_reducer, removed)


def parent_share(reducers: int, workers: int) -> int:
    """How many reducers, the lowest-numbered, the parent advances itself
    in a dispatched run: ``ceil(R / (P + 1))``, and never all of them."""
    return min(-(-reducers // (workers + 1)), reducers - 1)


class ProcessBackend(ExecutionBackend):
    """Dispatch certified contraction passes to forked workers."""

    name = "process"

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._pool: WorkerPool | None = None
        #: Set on the first worker failure: the pool is not trusted again
        #: and every later run stays in-process (degradation, not error).
        self.broken = False
        #: Per dispatched reducer, the :func:`snapshot` of its tree taken
        #: at the last merge: what its worker holds.  While the tree still
        #: equals it, a dispatch sends only the slide.
        self._synced: dict[int, dict[str, Any]] = {}

    # -- dispatch ------------------------------------------------------------

    def _eligible(self, engine: Any) -> bool:
        if not engine.executor.recurring:
            return False
        if self.broken or self.workers < 1:
            return False
        if engine.cluster is not None or engine.cache is not None:
            return False
        pair = (engine.config.tree_variant(), engine.mode.value)
        return pair in CERTIFIED_PARALLEL_VARIANTS

    def _ensure_pool(self, engine: Any, size: int) -> WorkerPool | None:
        if self._pool is None and not self.broken:
            try:
                self._pool = WorkerPool(size)
            except Exception:
                self.broken = True
                engine.telemetry.instant("backend.pool_failed")
        return None if self.broken else self._pool

    def _worker_failed(self, engine: Any, **what: Any) -> None:
        """The pool is never dispatched to again, so nothing is synced."""
        self.broken = True
        self._synced.clear()
        engine.telemetry.instant("backend.worker_failed", **what)

    def contract(
        self,
        engine: Any,
        per_reducer: "list[list[Partition]]",
        removed: int,
    ) -> "list[Partition]":
        if not self._eligible(engine):
            engine.telemetry.count("backend.inprocess_runs")
            return _advance_inprocess(engine, per_reducer, removed)
        trees = engine.trees
        share = parent_share(len(trees), self.workers)
        #: What this dispatch moves (partitions: both directions summed).
        moved: Counter[str] = Counter()
        pool: WorkerPool | None = None
        submitted: dict[int, int] = {}
        # Each payload is submitted as soon as it is pickled: its worker
        # runs while the next payload is built and the parent advances
        # its own share.
        for reducer in range(share, len(trees)):
            tree = trees[reducer]
            leaves = per_reducer[reducer]
            payload: dict[str, Any] = {
                "reducer": reducer,
                "leaves": leaves,
                "removed": removed,
                "label": f"reducer:{reducer}",
            }
            synced = self._synced.get(reducer)
            if synced is None or synced != tree_fields(tree):
                coded, refs, values = encode_refs(
                    tree.state(), places_of(synced or {})
                )
                payload["seed"] = (type(tree), coded)
            else:
                refs = values = 0
            try:
                blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                engine.telemetry.count("backend.unpicklable_fallbacks")
                continue
            if pool is None:
                pool = self._ensure_pool(
                    engine, min(self.workers, len(trees) - share)
                )
            if pool is None:
                break
            worker = (reducer - share) % len(pool)
            try:
                pool.submit(worker, blob)
            except RuntimeError:
                self._worker_failed(engine, worker=worker)
                break
            submitted[reducer] = worker
            if "seed" in payload:
                moved["reseeds"] += 1
            moved["payload_bytes"] += len(blob)
            moved["partitions_by_ref"] += refs
            moved["partitions_by_value"] += values + len(leaves)
        if submitted:
            engine.telemetry.count("backend.dispatch_runs")
            engine.telemetry.count(
                "backend.dispatched_reducers", len(submitted)
            )
        else:
            engine.telemetry.count("backend.inprocess_runs")
        # Merge strictly in reducer order under the same span/scope
        # structure as the in-process path — this ordering is what makes
        # the float additions, span positions, and log records identical.
        # The parent's share comes first, advanced here while the workers
        # run theirs.
        roots: "list[Partition]" = []
        for reducer, tree in enumerate(trees):
            with engine.telemetry.span(
                f"reducer:{reducer}", SpanKind.TASK, reducer=reducer
            ):
                with engine.executor.reducer_scope(reducer):
                    root = None
                    if reducer in submitted:
                        root = self._merge_one(
                            engine, reducer, tree, pool,
                            submitted[reducer], per_reducer[reducer], moved,
                        )
                    if root is None:
                        root = tree.advance(per_reducer[reducer], removed)
                    roots.append(root)
        if submitted:
            for name, amount in moved.items():
                engine.telemetry.count(f"backend.{name}", amount)
        return roots

    def _merge_one(
        self,
        engine: Any,
        reducer: int,
        tree: "ContractionTree",
        pool: WorkerPool | None,
        worker: int,
        leaves: "list[Partition]",
        moved: Counter[str],
    ) -> "Partition | None":
        """Receive one worker result and fold it in; None → run locally.

        The in-process fallback after a worker failure is safe because
        the parent's tree is a complete mirror that nothing has touched:
        the worker advanced its own.
        """
        assert pool is not None
        try:
            result, size = pool.receive(worker)
            (root, delta), refs, values = decode_refs(
                result["coded"], vars(tree), leaves
            )
        except (RuntimeError, LookupError) as exc:
            engine.telemetry.count("backend.worker_fallbacks")
            self._worker_failed(engine, worker=worker, error=str(exc))
            return None
        log = engine.executor.log
        replay_events(engine.telemetry, result["events"], log, result["log"])
        apply_delta(tree.__dict__, delta)
        if not self.broken:  # an earlier reducer's failure ended dispatching
            self._synced[reducer] = snapshot(tree_fields(tree))
        moved["reply_bytes"] += size
        moved["partitions_by_ref"] += refs
        moved["partitions_by_value"] += values
        return root

    def close(self) -> None:
        self._synced.clear()
        if self._pool is not None:
            self._pool.close()
            self._pool = None


def make_backend(name: str, workers: int) -> ExecutionBackend:
    """Construct the backend a config names."""
    if name == "inprocess":
        return InProcessBackend()
    if name == "process":
        return ProcessBackend(workers)
    raise ValueError(
        f"unknown execution backend {name!r}; expected one of "
        f"{EXECUTION_BACKENDS}"
    )
