"""Tracing from outside: wrappers set on the live engine's collaborators.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces, on one
engine instance, the bound methods at each layer boundary with wrappers
that record a span (name, layer, start, end, parent span, slide index).
Spans stay in memory until the run ends.  Functions too hot to time per
call (``stable_hash``, ``Telemetry.open_span``) get counting wrappers;
their unit cost comes from a probe.

Layer names are the repo's modules.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import repro.core.partition as partition_module

#: (collaborator attribute on the engine or None for the engine itself,
#: method, layer).  A span is named ``<layer>.<method>``.
_BOUNDARIES = (
    (None, "advance", "system"),
    (None, "background_preprocess", "system"),
    ("planner", "begin_run", "planning"),
    ("planner", "run_maps", "mapreduce"),
    ("planner", "reducer_leaves", "planning"),
    ("planner", "reduce_all", "planning"),
    ("planner", "finish_run", "compile"),
    ("backend", "contract", "backends"),
    ("executor", "end_run", "execute"),
    ("lifecycle", "space", "lifecycle"),
    ("lifecycle", "collect_garbage", "lifecycle"),
    ("timing", "simulate", "execution"),
)
_TREE_METHODS = ("advance", "background_preprocess")

_ABSENT = object()


class Tracer:
    def __init__(self) -> None:
        #: [name, layer, start, end, parent index or -1, slide index]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._slide = -1
        self._undo: list[tuple] = []

    def begin_slide(self, index: int) -> None:
        self._slide = index

    # -- installing -----------------------------------------------------------

    def install(self, engine) -> None:
        for holder_name, method, layer in _BOUNDARIES:
            holder = engine if holder_name is None else getattr(engine, holder_name)
            self._wrap(holder, method, layer)
        # The process backend ships ``tree.__dict__`` to its workers, so a
        # wrapper set on a tree would make the payload unpicklable and
        # force the in-process fallback: its trees stay untouched (their
        # advance runs in the workers, outside this process).
        if engine.config.execution_backend == "inprocess":
            for tree in engine.trees:
                for method in _TREE_METHODS:
                    if hasattr(tree, method):
                        self._wrap(tree, method, "tree")
        self._count(engine.telemetry, "open_span", "telemetry.open_span")
        if not any(holder is partition_module for holder, _, _ in self._undo):
            self._count(partition_module, "stable_hash", "partition.stable_hash")

    def uninstall(self) -> None:
        for holder, attribute, original in reversed(self._undo):
            if original is _ABSENT:
                delattr(holder, attribute)
            else:
                setattr(holder, attribute, original)
        self._undo.clear()

    def _set(self, holder, attribute: str, replacement) -> None:
        # On an instance the wrapper shadows the class's method and is
        # simply deleted again; a module's own function is put back.
        self._undo.append(
            (holder, attribute, vars(holder).get(attribute, _ABSENT))
        )
        setattr(holder, attribute, replacement)

    def _wrap(self, holder, method: str, layer: str) -> None:
        original = getattr(holder, method)
        spans = self.spans
        stack = self._stack
        name = f"{layer}.{method}"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self._slide]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        self._set(holder, method, traced)

    def _count(self, holder, attribute: str, key: str) -> None:
        original = getattr(holder, attribute)
        counts = self.counts
        stack = self._stack

        def counted(*args, **kwargs):
            # Only inside a traced public call: the oracle's batch runs
            # and the checkpoints between slides hash and open spans too.
            if stack:
                counts[key] += 1
            return original(*args, **kwargs)

        self._set(holder, attribute, counted)

    # -- reading --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        own = [span[3] - span[2] for span in self.spans]
        for span in self.spans:
            if span[4] >= 0:
                own[span[4]] -= span[3] - span[2]
        return own

    def per_slide(self, timeline) -> dict[str, dict[str, float]]:
        """name -> {"self_ms", "total_ms", "calls"} per slide, normalised."""
        own = self.self_times()
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_ms": 0.0, "total_ms": 0.0, "calls": 0.0}
        )
        slides = {span[5] for span in self.spans}
        for span, self_s in zip(self.spans, own):
            scale = 1e3 * timeline.factor(span[2], span[3] - span[2])
            row = table[span[0]]
            row["self_ms"] += self_s * scale
            row["total_ms"] += (span[3] - span[2]) * scale
            row["calls"] += 1
        for row in table.values():
            for key in row:
                row[key] /= max(1, len(slides))
        return dict(table)

    def worst_residual(self) -> float:
        """Largest relative gap, over the traced public calls, between a
        root span and the self times of everything under it."""
        own = self.self_times()
        covered = [0.0] * len(self.spans)
        root_of: list[int] = []
        for index, span in enumerate(self.spans):
            root = index if span[4] < 0 else root_of[span[4]]
            root_of.append(root)
            covered[root] += own[index]
        worst = 0.0
        for index, span in enumerate(self.spans):
            if span[4] < 0 and span[3] > span[2]:
                duration = span[3] - span[2]
                worst = max(worst, abs(covered[index] - duration) / duration)
        return worst

    # -- writing --------------------------------------------------------------

    def write_chrome_trace(self, path: Path, workload: str) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": parent, "slide": slide},
            }
            for index, (name, layer, start, end, parent, slide) in enumerate(
                self.spans
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "otherData": {"workload": workload}})
        )


def self_time_table(per_slide: dict[str, dict[str, float]]) -> str:
    total = sum(row["self_ms"] for row in per_slide.values()) or 1.0
    lines = [f"{'span':38} {'calls':>8} {'total ms':>10} {'self ms':>10} {'share':>7}"]
    for name, row in sorted(
        per_slide.items(), key=lambda item: -item[1]["self_ms"]
    ):
        lines.append(
            f"{name:38} {row['calls']:8.2f} {row['total_ms']:10.4f} "
            f"{row['self_ms']:10.4f} {row['self_ms'] / total:7.1%}"
        )
    return "\n".join(lines)
