"""Slider configuration: tree variant, window mode, and execution knobs."""

from __future__ import annotations

import os

from dataclasses import dataclass, field

from repro.core.backends import EXECUTION_BACKENDS
from repro.core.poison import PoisonPolicy
from repro.slider.window import WindowMode

#: Tree-variant names accepted by SliderConfig.tree.
TREE_VARIANTS = ("auto", "folding", "randomized", "rotating", "coalescing", "strawman")


def _default_backend() -> str:
    """Environment-selectable default so an unmodified test suite can run
    under another backend (the CI process-matrix job sets
    ``REPRO_EXECUTION_BACKEND=process``)."""
    return os.environ.get("REPRO_EXECUTION_BACKEND", "inprocess")


def _default_workers() -> int:
    return int(os.environ.get("REPRO_WORKERS", "2"))

#: Memo fingerprint-verification modes accepted by SliderConfig.memo_verify.
MEMO_VERIFY_MODES = ("off", "tainted", "paranoid")


@dataclass(frozen=True)
class SliderConfig:
    """Configuration for a Slider instance."""

    mode: WindowMode = WindowMode.VARIABLE
    #: Tree variant; "auto" picks the paper's choice for the mode.
    tree: str = "auto"
    #: Splits per rotating-tree bucket (the paper's w), FIXED mode only.
    bucket_size: int = 1
    #: Enable background pre-processing (§4) for FIXED/APPEND modes.
    split_mode: bool = False
    #: Rebuild threshold for the plain folding tree (None = never rebuild).
    rebuild_factor: int | None = None
    #: Seed for the randomized folding tree's coins.
    seed: int = 0
    #: Garbage-collect memoized state that fell out of the window.
    auto_gc: bool = True
    #: Quarantine poison records/keys under this retry policy instead of
    #: failing the run; ``None`` propagates user-code exceptions unchanged.
    poison_policy: PoisonPolicy | None = None
    #: Max entries each tree memo table retains; exhausting the budget
    #: degrades new sub-computations toward strawman recomputation.
    memo_budget: int | None = None
    #: Memo fingerprint verification on read: "off", "tainted" (only
    #: entries marked suspect, each verified once), or "paranoid".
    memo_verify: str = "tainted"
    #: Where certified contraction work executes: "inprocess" (default,
    #: bit-identical single-process path) or "process" (persistent forked
    #: worker pool; ineligible runs fall back per the backend's dispatch
    #: ladder).  Defaults honor the
    #: ``REPRO_EXECUTION_BACKEND`` / ``REPRO_WORKERS`` environment.
    execution_backend: str = field(default_factory=_default_backend)
    #: Worker processes the process backend may fork (capped at the
    #: job's reducer count); ignored by the in-process backend.
    workers: int = field(default_factory=_default_workers)

    def __post_init__(self) -> None:
        if self.memo_verify not in MEMO_VERIFY_MODES:
            raise ValueError(
                f"unknown memo_verify mode {self.memo_verify!r} "
                f"(choose from {MEMO_VERIFY_MODES})"
            )
        if self.memo_budget is not None and self.memo_budget < 0:
            raise ValueError(
                f"memo_budget must be non-negative, got {self.memo_budget}"
            )
        if self.execution_backend not in EXECUTION_BACKENDS:
            raise ValueError(
                f"unknown execution backend {self.execution_backend!r} "
                f"(choose from {EXECUTION_BACKENDS})"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")

    def tree_variant(self) -> str:
        if self.tree != "auto":
            if self.tree not in TREE_VARIANTS:
                raise ValueError(f"unknown tree variant {self.tree!r}")
            return self.tree
        return {
            WindowMode.APPEND: "coalescing",
            WindowMode.FIXED: "rotating",
            WindowMode.VARIABLE: "folding",
        }[self.mode]
