"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class CombinerContractError(ReproError, ValueError):
    """A combiner violated a required algebraic property.

    Every contraction tree requires associativity, and rotating trees
    require commutativity in addition; job construction and the tree
    constructors raise this error when a combiner does not provide the
    needed property.  Subclasses :class:`ValueError` because a contract
    violation is a bad argument — and so that callers written against the
    original plain-``ValueError`` signature keep working.
    """


class SchedulingError(ReproError):
    """The cluster simulator was asked to do something impossible.

    Examples: scheduling a task on a dead machine, or running a job on a
    cluster with zero alive machines.
    """


class WindowError(ReproError):
    """An invalid sliding-window operation was requested.

    Examples: removing more splits than the window holds, or advancing a
    fixed-width window by a delta that changes its size.
    """


class TaskFailedError(SchedulingError):
    """A task exhausted its attempt budget and cannot complete.

    Raised by the event-driven executor when every attempt of a task was
    lost to machine crashes or transient failures, ``max_attempts`` times
    in a row.  Carries the task label and the attempt count.
    """

    def __init__(self, label: str, attempts: int) -> None:
        super().__init__(
            f"task {label!r} failed permanently after {attempts} attempts"
        )
        self.label = label
        self.attempts = attempts


class MemoStoreFull(ReproError):
    """The shared-memory store's fixed segment cannot take another entry.

    Raised by :meth:`~repro.core.sharedmem.SharedMemoStore.put` when an
    entry does not fit even after compaction.
    """


class CheckpointError(ReproError):
    """A checkpoint could not be written, read, or applied.

    Examples: a manifest with an unsupported format version, a checkpoint
    taken from a different job than the one supplied to ``restore``, or a
    directory that is missing a segment the manifest promises.
    """


class CorruptionError(ReproError):
    """Stored state failed content-fingerprint verification.

    Raised eagerly on restore when a checkpoint segment's digest does not
    match its manifest entry, or when a restored partition's entries no
    longer hash to its recorded uid.  In-memory corruption found lazily on
    memo reads is *not* raised — it is repaired by recomputation and only
    costs work.
    """


class QueryCompilationError(ReproError):
    """A logical query plan could not be compiled to a MapReduce pipeline."""
