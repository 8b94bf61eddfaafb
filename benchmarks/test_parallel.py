"""Execution backends: in-process vs multi-process workers sweep.

One fixed steady-slide schedule per app, driven under the in-process
backend and under the process backend at 1, 2, 4, and 8 workers.  Two
claims are checked:

* **Equivalence is unconditional.**  Outputs and metered work per
  advance are bit-identical across every backend configuration — the
  execution backend is a placement decision, never a semantics change.
* **Speedup is hardware-conditional.**  Worker processes can only beat
  the in-process path when the host has a CPU for each of them.  A
  configuration with more workers than ``os.cpu_count()`` still runs —
  dispatch and merge are both exercised and its
  timings recorded — but its ``speedup_over_inprocess`` is written as
  ``null`` with ``"skipped": "host_cpus < workers"``: the host cannot
  support the figure.  The ``speedup > 1`` assertion (at least one app)
  applies to the largest ``workers <= host_cpus`` only, and only when
  that is at least 2.

Each app's whole input stream is generated once, at offset 0, before any
timer starts, and sliced; ``make_splits(1, seed, offset)`` costs
O(offset) and used to be most of the timed region.  Wall clock is steady
state only (two-period warmup takes the engine through every structural
state once and burns off one-time pool setup; the process backend only
dispatches an advance from a state the engine has been in, so warmup
also guarantees the measured advances actually cross the process seam),
with measured periods
interleaved across configurations and min-over-repeats reported.
Results land in ``BENCH_parallel.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import WINDOW_SPLITS
from repro.bench.format import format_table
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode

_REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_parallel.json"

#: Folding structural period for the 40-split window (next power of two).
_PERIOD = 64
_WARMUP_ADVANCES = 2 * _PERIOD
#: Steady state dispatches regardless of position in the period, so the
#: measured stretch need not cover a full period.
_MEASURED_ADVANCES = 32
_REPEATS = 2

_WORKERS_SWEEP = (1, 2, 4, 8)


def _configs():
    yield "inprocess", dict(execution_backend="inprocess")
    for workers in _WORKERS_SWEEP:
        yield f"process-{workers}", dict(
            execution_backend="process", workers=workers
        )


class _Drive:
    """One backend configuration over the fixed schedule."""

    def __init__(self, spec, stream, config_kw):
        self.stream = stream
        #: Worker processes this configuration asks for (0: in-process).
        self.workers = config_kw.get("workers", 0)
        config = SliderConfig(mode=WindowMode.VARIABLE, **config_kw)
        self.slider = Slider(spec.make_job(), WindowMode.VARIABLE, config=config)
        self.slider.initial_run(stream[:WINDOW_SPLITS])
        self.offset = WINDOW_SPLITS
        self.outputs, self.work = [], []
        self.period_seconds = []

    def advance_many(self, count, record=False):
        for _ in range(count):
            result = self.slider.advance(
                self.stream[self.offset : self.offset + 1], 1
            )
            self.offset += 1
            if record:
                self.outputs.append(result.outputs)
                self.work.append(result.report.work)

    def measure_period(self):
        started = time.perf_counter()
        self.advance_many(_MEASURED_ADVANCES, record=True)
        self.period_seconds.append(time.perf_counter() - started)

    def counters(self, prefix="backend."):
        return {
            name: value
            for name, value in self.slider.telemetry.counters.items()
            if name.startswith(prefix)
        }

    def close(self):
        self.slider.close()


def test_parallel_workers_sweep(apps):
    host_cpus = os.cpu_count() or 1
    specs = {spec.name: spec for spec in apps}
    report = {"host_cpus": host_cpus}
    rows = []
    #: The widest configuration this host has a CPU per worker for.
    gate = max((w for w in _WORKERS_SWEEP if w <= host_cpus), default=0)
    speedups_at_gate = []
    stream_splits = (
        WINDOW_SPLITS + _WARMUP_ADVANCES + _REPEATS * _MEASURED_ADVANCES
    )
    for app_name in ("hct", "kmeans"):
        spec = specs[app_name]
        stream = spec.make_splits(stream_splits, 17, 0)
        drives = {name: _Drive(spec, stream, kw) for name, kw in _configs()}
        try:
            for drive in drives.values():
                drive.advance_many(_WARMUP_ADVANCES)
            # Interleave measured periods so load drift is config-neutral.
            for _ in range(_REPEATS):
                for drive in drives.values():
                    drive.measure_period()

            base = drives["inprocess"]
            base_seconds = min(base.period_seconds)
            app_report = {}
            for name, drive in drives.items():
                # The backend never changes what a run computes.
                assert drive.outputs == base.outputs, (app_name, name)
                assert drive.work == base.work, (app_name, name)
                counters = drive.counters()
                if name != "inprocess":
                    # The measured advances really crossed the seam.
                    assert counters.get("backend.dispatched_reducers", 0) > 0, (
                        f"{app_name}/{name}: process backend never dispatched"
                    )
                seconds = min(drive.period_seconds)
                app_report[name] = {
                    "seconds": seconds,
                    "period_seconds": drive.period_seconds,
                    "speedup_over_inprocess": base_seconds / seconds,
                    "backend_counters": counters,
                }
                if drive.workers > host_cpus:
                    app_report[name]["speedup_over_inprocess"] = None
                    app_report[name]["skipped"] = "host_cpus < workers"
            report[app_name] = app_report
            at_gate = app_report.get(f"process-{gate}", {}).get(
                "speedup_over_inprocess"
            )
            speedups_at_gate.append(at_gate)
            rows.append(
                [app_name, base_seconds * 1e3]
                + [
                    app_report[f"process-{w}"]["seconds"] * 1e3
                    for w in _WORKERS_SWEEP
                ]
                + [at_gate if at_gate is not None else float("nan")]
            )
        finally:
            for drive in drives.values():
                drive.close()

    report["schedule"] = {
        "window_splits": WINDOW_SPLITS,
        "warmup_advances": _WARMUP_ADVANCES,
        "measured_advances": _MEASURED_ADVANCES,
        "repeats": _REPEATS,
        "timing": "min over interleaved repeats, steady state only",
        "inputs": "one stream per app generated at offset 0 before any timer",
        "speedup_asserted_at_workers": gate if gate >= 2 else None,
    }
    _REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True))

    print()
    print(
        format_table(
            f"Execution backends — workers sweep (host_cpus={host_cpus}, "
            f"min of {_REPEATS}x{_MEASURED_ADVANCES} advances after "
            f"{_WARMUP_ADVANCES}-advance warmup)",
            ["app", "inproc ms"]
            + [f"w={w} ms" for w in _WORKERS_SWEEP]
            + [f"speedup@{gate}"],
            rows,
        )
    )

    # Last, so that the record and the table exist either way.
    if gate >= 2:
        # With a CPU per worker at least one app must profit.
        assert max(speedups_at_gate) > 1.0, (
            f"no app sped up at workers={gate} on a {host_cpus}-CPU host: "
            f"{speedups_at_gate}"
        )
