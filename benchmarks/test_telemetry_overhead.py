"""Context: overhead of the telemetry backbone itself.

Drives the identical window schedule twice — once with the default
span-recording :class:`~repro.telemetry.Telemetry` and once with the
no-op :class:`~repro.telemetry.NullTelemetry` recorder — and compares
wall-clock time.  The two runs must produce *exactly* equal per-phase
work totals (the bit-identity invariant: span recording is pure
observation), and the recording overhead should stay small — the design
target is <5 % on a realistic run; CI asserts a generous envelope since
shared-runner timings are noisy.  The input stream is generated once,
before any timer: ``make_splits`` at an offset re-generates everything
before it, so inside the timer it would be most of what is timed.
"""

from __future__ import annotations

import time

from conftest import WINDOW_SPLITS
from repro.bench.format import format_table
from repro.slider.system import Slider, SliderConfig
from repro.slider.window import WindowMode
from repro.telemetry import NullTelemetry, Telemetry


#: Slides a schedule makes after its first window, two splits each.
SLIDES = 3


def _drive(spec, telemetry, stream) -> tuple[dict, float]:
    """One fixed schedule over ``stream`` under the given recorder:
    (by_phase, seconds)."""
    job = spec.make_job()
    config = SliderConfig(mode=WindowMode.VARIABLE)
    slider = Slider(
        job, WindowMode.VARIABLE, config=config, telemetry=telemetry
    )
    started = time.perf_counter()
    slider.initial_run(stream[:WINDOW_SPLITS])
    for offset in range(WINDOW_SPLITS, WINDOW_SPLITS + 2 * SLIDES, 2):
        slider.advance(stream[offset : offset + 2], 2)
    elapsed = time.perf_counter() - started
    return dict(slider.telemetry.by_phase), elapsed


def test_telemetry_overhead(apps, benchmark):
    spec = apps[0]
    stream = spec.make_splits(WINDOW_SPLITS + 2 * SLIDES, 17, 0)

    # Warm both paths once so import/JIT-ish costs don't skew either side.
    _drive(spec, NullTelemetry(label="warmup"), stream)
    _drive(spec, Telemetry(label="warmup"), stream)

    rows = []
    overheads = []
    for _ in range(3):
        null_phase, null_seconds = _drive(spec, NullTelemetry(label="off"), stream)
        full_phase, full_seconds = _drive(spec, Telemetry(label="on"), stream)
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
        return _drive(spec, Telemetry(label="bench"), stream)

    benchmark.pedantic(replay, rounds=1, iterations=1)
