"""The host side of a measurement: calibration, normalisation, host facts.

Every timing the benchmark gates is wall-clock or CPU time multiplied by
``CALIBRATION_REF_MS / (calibration kernel time around that operation)``,
so it reads "ms on the reference host" and a run on a slower or busier
host is comparable with one on a quiet host.  The kernel imports nothing
from ``repro``: a change to the program cannot move the yardstick.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import statistics
import time
from bisect import bisect_right

#: Kernel time on the host the benchmark was sized on.  It only fixes the
#: unit of the normalised metrics; changing it rescales every timing.
CALIBRATION_REF_MS = 2.2

#: A calibration sample is the median of this many kernel runs.  The
#: median, not the fastest: it has to slow down when the operations
#: between two samples do, and their medians are what is reported.  On
#: the shared host this was sized on, normalising by the fastest of seven
#: left the median advance spread over 12 % of its value across runs in
#: a noisy spell, normalising by the median 2-9 %.
KERNEL_REPEATS = 7

#: Longest stretch of measured time without a calibration sample.
CALIBRATION_INTERVAL_S = 0.1


def calibration_kernel() -> int:
    """~2 ms of the interpreter work an advance is made of: tuple and
    dict traffic, ``repr`` of floats and ints, and BLAKE2b hashing."""
    table: dict[tuple[int, str], float] = {}
    digest = 0
    for index in range(1400):
        key = (index % 97, str(index))
        table[key] = table.get(key, 0.0) + index * 0.5
        encoded = repr((key, table[key])).encode("ascii")
        digest ^= int.from_bytes(
            hashlib.blake2b(encoded, digest_size=8).digest(), "big"
        )
    return digest ^ len(table)


class Timeline:
    """Calibration samples over a run, and the timers that use them.

    ``timing`` is true while one of this timeline's timers is running;
    the stream generator refuses to run then (inputs are never made in a
    timed region).
    """

    def __init__(self) -> None:
        self.sample_times: list[float] = []
        self.sample_ms: list[float] = []
        self.timing = False

    def calibrate(self) -> float:
        """Take one calibration sample now; returns it in ms."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            runs = []
            for _ in range(KERNEL_REPEATS):
                start = time.perf_counter()
                calibration_kernel()
                runs.append(time.perf_counter() - start)
        finally:
            if was_enabled:
                gc.enable()
        sample = statistics.median(runs) * 1e3
        self.sample_times.append(time.perf_counter())
        self.sample_ms.append(sample)
        return sample

    def calibrate_if_due(self) -> None:
        if time.perf_counter() - self.sample_times[-1] >= CALIBRATION_INTERVAL_S:
            self.calibrate()

    def timed(self, operation, collector: bool = True):
        """Run ``operation()``; returns (result, start, wall s, cpu s).

        ``collector=False`` holds the garbage collector off for the call:
        for the rare, allocation-heavy operations (checkpoint, restore)
        of which a run has a handful, where one full collection of a
        large heap landing inside would decide the median."""
        hold = not collector and gc.isenabled()
        if hold:
            gc.disable()
        self.timing = True
        try:
            cpu = time.process_time()
            start = time.perf_counter()
            result = operation()
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
        finally:
            self.timing = False
            if hold:
                gc.enable()
        return result, start, wall, cpu

    def factor(self, start: float, duration: float = 0.0) -> float:
        """Multiplier taking a timing at ``start`` to the reference host:
        the reference over the mean of the samples bracketing it."""
        after = bisect_right(self.sample_times, start + duration)
        before = bisect_right(self.sample_times, start) - 1
        bracket = [
            self.sample_ms[index]
            for index in (before, after)
            if 0 <= index < len(self.sample_ms)
        ]
        return CALIBRATION_REF_MS / statistics.fmean(bracket)

    def mean_factor(self) -> float:
        return CALIBRATION_REF_MS / statistics.fmean(self.sample_ms)

    def spread(self) -> float:
        return max(self.sample_ms) / min(self.sample_ms)


def host_facts() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "calibration_ref_ms": CALIBRATION_REF_MS,
    }


def children_cpu_seconds() -> float:
    """CPU seconds used so far by this process's live children (the
    process backend's workers), read from ``/proc``; 0.0 where there is
    no ``/proc``."""
    me = os.getpid()
    ticks = 0
    try:
        pids = [entry for entry in os.listdir("/proc") if entry.isdigit()]
    except OSError:
        return 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # After the "(comm)" field: state ppid ... utime stime are at
        # offsets 0, 1, 11, 12.
        if int(fields[1]) == me:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def stop_children() -> None:
    """End every process this one started and wait until each is gone.

    ``Slider.close`` asks its workers to leave and does not wait for one
    it had to terminate, and the first shared-memory segment starts
    multiprocessing's resource tracker, which only leaves once this
    process has: without this, children outlive a run by a moment.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for process in multiprocessing.active_children():
        process.join(timeout=2.0)
        if process.is_alive():
            process.kill()
        process.join()
    # The tracker leaves when the last copy of its pipe is closed; the
    # workers, which inherited one, are gone by now.
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
        try:
            os.waitpid(tracker._pid, 0)
        except ChildProcessError:  # already reaped
            pass
        tracker._pid = None
