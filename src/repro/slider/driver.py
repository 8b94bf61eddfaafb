"""Time-based window driving: the convenience layer over Slider.

:class:`~repro.slider.system.Slider` thinks in *splits*; real deployments
think in *time*: "a one-hour window sliding every five minutes".  The
:class:`StreamDriver` consumes timestamped records, buckets them into
per-slide split batches, and drives a Slider through the corresponding
window advances — fixed-width when every slide carries the same number of
splits is not guaranteed, so the driver runs in VARIABLE (or APPEND) mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.common.errors import WindowError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.types import Split, make_splits
from repro.slider.system import Slider, SliderConfig, SliderResult
from repro.slider.window import WindowMode
from repro.telemetry import ENGINE_KEEP_LAST

#: Extracts the event time from a record.
TimestampFn = Callable[[Any], float]


@dataclass
class _SlideBatch:
    """Splits admitted for one slide interval."""

    slide_index: int
    splits: list[Split] = field(default_factory=list)


class StreamDriver:
    """Drives a Slider over a stream with a duration-based sliding window.

    ``window`` and ``slide`` are in the stream's time unit.  Records are
    buffered until a slide boundary passes, then chopped into splits and
    fed to the Slider: splits whose slide interval fell out of the window
    are dropped from the front, the new interval's splits are appended.

    Use ``window=None`` for an append-only (landmark) window.
    """

    def __init__(
        self,
        job: MapReduceJob,
        timestamp_fn: TimestampFn,
        slide: float,
        window: float | None = None,
        split_size: int = 100,
        slider_config: SliderConfig | None = None,
        cluster=None,
        chaos=None,
    ) -> None:
        if slide <= 0:
            raise WindowError(f"slide must be positive, got {slide}")
        if window is not None:
            if window <= 0:
                raise WindowError(f"window must be positive, got {window}")
            if window < slide:
                raise WindowError("window must be at least one slide long")
        self.job = job
        self.timestamp_fn = timestamp_fn
        self.slide = slide
        self.window = window
        self.split_size = split_size
        mode = WindowMode.APPEND if window is None else WindowMode.VARIABLE
        self.mode = mode
        self.slider = Slider(
            job,
            mode=mode,
            config=slider_config,
            cluster=cluster,
            chaos=chaos,
        )
        #: Slide intervals currently inside the window, oldest first.
        self._live_batches: list[_SlideBatch] = []
        self._pending: list[Any] = []
        # Boundary k sits at exactly ``k * slide``.  Tracking the integer
        # index instead of accumulating ``boundary += slide`` keeps late
        # boundaries free of float drift, so an event timestamped exactly
        # on a boundary lands in the same slide no matter how many slides
        # preceded it.
        self._boundary_index: int | None = None
        self._slide_index = 0
        self._ran_initial = False
        #: The newest ``ENGINE_KEEP_LAST`` results (``feed`` returns every
        #: one to its caller; a stream may run indefinitely).
        self.results: list[SliderResult] = []

    @property
    def slides_per_window(self) -> int | None:
        if self.window is None:
            return None
        return int(round(self.window / self.slide))

    def feed(self, records: Iterable[Any]) -> list[SliderResult]:
        """Consume records (non-decreasing timestamps); returns the results
        of any window advances the records triggered."""
        produced: list[SliderResult] = []
        for record in records:
            when = self.timestamp_fn(record)
            if self._boundary_index is None:
                self._boundary_index = int(when // self.slide) + 1
            while when >= self._boundary_index * self.slide:
                result = self._close_slide()
                if result is not None:
                    produced.append(result)
                self._boundary_index += 1
            self._pending.append(record)
        return produced

    def flush(self) -> SliderResult | None:
        """Force the currently buffered records through as a final slide."""
        return self._close_slide()

    def current_outputs(self) -> dict[Any, Any]:
        """Outputs as of the last completed slide."""
        return self.results[-1].outputs if self.results else {}

    def checkpoint(self, path) -> None:
        """Write a durable checkpoint: engine state plus the stream cursor.

        Legal between ``feed`` calls (the engine must be idle).  Records
        already fed but not yet closed into a slide — the unacknowledged
        tail — are captured verbatim and replayed by ``restore``.
        """
        from repro.recovery.checkpoint import write_driver_checkpoint

        write_driver_checkpoint(self, path)

    @staticmethod
    def restore(path, job: MapReduceJob, timestamp_fn: TimestampFn) -> "StreamDriver":
        """Rebuild a driver from ``checkpoint``; replays only the pending
        record tail (completed slides are never re-fed)."""
        from repro.recovery.checkpoint import restore_driver

        return restore_driver(path, job, timestamp_fn)

    # -- internals ---------------------------------------------------------

    def _close_slide(self) -> SliderResult | None:
        # Atomic per slide: any failure inside the engine (user code that
        # raises, an injected fault, ...) must leave the
        # stream cursor exactly as it was, so the caller can checkpoint or
        # retry without half a slide folded into the buffers.
        saved = (
            self._pending,
            list(self._live_batches),
            self._slide_index,
            self._ran_initial,
        )
        try:
            records, self._pending = self._pending, []
            batch = _SlideBatch(self._slide_index)
            self._slide_index += 1
            if records:
                batch.splits = make_splits(
                    records,
                    split_size=self.split_size,
                    label_prefix=f"slide{batch.slide_index}-",
                )
            self._live_batches.append(batch)

            removed = 0
            limit = self.slides_per_window
            if limit is not None:
                while len(self._live_batches) > limit:
                    expired = self._live_batches.pop(0)
                    removed += len(expired.splits)

            if not self._ran_initial:
                window_splits = [
                    split for live in self._live_batches for split in live.splits
                ]
                result = self.slider.initial_run(window_splits)
                self._ran_initial = True
            else:
                result = self.slider.advance(batch.splits, removed)
        except BaseException:
            (
                self._pending,
                self._live_batches,
                self._slide_index,
                self._ran_initial,
            ) = saved
            raise
        self.results.append(result)
        del self.results[:-ENGINE_KEEP_LAST]  # a ring, like the engine's spans
        return result
