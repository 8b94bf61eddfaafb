"""Context: overhead of the telemetry backbone itself.

Drives the identical window schedule twice — once with the default
span-recording :class:`~repro.telemetry.Telemetry` and once with the
no-op :class:`~repro.telemetry.NullTelemetry` recorder — and compares
wall-clock time.  The two runs must produce *exactly* equal per-phase
work totals (the bit-identity invariant: span recording is pure
observation), and the recording overhead should stay small — the design
target is <5 % on a realistic run; CI asserts a generous envelope since
shared-runner timings are noisy.
"""

from __future__ import annotations

import time

from conftest import WINDOW_SPLITS
from repro.bench.format import format_table
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from repro.telemetry import NullTelemetry, Telemetry


def _drive(spec, telemetry) -> tuple[dict, float]:
    """One fixed schedule under the given recorder: (by_phase, seconds)."""
    job = spec.make_job()
    config = SliderConfig(mode=WindowMode.VARIABLE)
    slider = Slider(
        job, WindowMode.VARIABLE, config=config, telemetry=telemetry
    )
    started = time.perf_counter()
    slider.initial_run(spec.make_splits(WINDOW_SPLITS, 17, 0))
    offset = WINDOW_SPLITS
    for _ in range(3):
        slider.advance(spec.make_splits(2, 17, offset), 2)
        offset += 2
    elapsed = time.perf_counter() - started
    return dict(slider.telemetry.by_phase), elapsed


def test_telemetry_overhead(apps, benchmark):
    spec = apps[0]

    # Warm both paths once so import/JIT-ish costs don't skew either side.
    _drive(spec, NullTelemetry(label="warmup"))
    _drive(spec, Telemetry(label="warmup"))

    rows = []
    overheads = []
    for _ in range(3):
        null_phase, null_seconds = _drive(spec, NullTelemetry(label="off"))
        full_phase, full_seconds = _drive(spec, Telemetry(label="on"))
        # The backbone is pure observation: identical float-by-float totals.
        assert full_phase == null_phase
        overheads.append(100.0 * (full_seconds / null_seconds - 1.0))
        rows.append([null_seconds * 1e3, full_seconds * 1e3, overheads[-1]])

    best = min(overheads)
    print()
    print(
        format_table(
            "Context — telemetry recording overhead "
            f"({spec.name}, best of {len(rows)}: {best:.1f}%; target <5%)",
            ["no-op recorder ms", "recording ms", "overhead %"],
            rows,
        )
    )

    # Generous CI envelope; the design target (<5 %) is documented in
    # EXPERIMENTS.md and holds on quiet machines for the best-of runs.
    assert best < 60.0, overheads

    def replay():
        return _drive(spec, Telemetry(label="bench"))

    benchmark.pedantic(replay, rounds=1, iterations=1)
