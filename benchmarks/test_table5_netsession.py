"""Table 5: the Akamai NetSession log-auditing case study (§8.3).

A month-long window of client logs sliding by one week, where only a
fraction of clients (100 % down to 75 %) is online to upload in the final
week — so each run's window size varies, exercising variable-width
windows.  Reports Slider's time/work speedup over recomputation per upload
fraction.  Expected shape (paper): speedups around 1.7-2.8x that *increase*
as the upload fraction drops (fewer new logs = smaller delta = more reuse).
"""

from __future__ import annotations

from repro.apps.netsession import make_log_splits, netsession_audit_job
from repro.bench.format import format_table
from repro.datagen.netsession import ClientLogGenerator
from repro.slider.baseline import VanillaRunner
from repro.slider.system import Slider
from repro.slider.window import WindowMode

NUM_CLIENTS = 600
LOGS_PER_SPLIT = 150
UPLOAD_FRACTIONS = (1.0, 0.95, 0.90, 0.85, 0.80, 0.75)


def measure_fraction(fraction: float) -> tuple[float, float]:
    """(time speedup, work speedup) of the 5th week's audit run."""
    generator = ClientLogGenerator(
        num_clients=NUM_CLIENTS, entries_per_client=3, seed=23
    )
    weeks = [
        make_log_splits(generator.week_of_logs(w, 1.0), LOGS_PER_SPLIT)
        for w in range(4)
    ]
    final_week = make_log_splits(
        generator.week_of_logs(4, fraction), LOGS_PER_SPLIT
    )

    job = netsession_audit_job()
    slider = Slider(job, WindowMode.VARIABLE)
    vanilla = VanillaRunner(job, WindowMode.VARIABLE)
    window = [split for week in weeks for split in week]
    slider.initial_run(window)
    vanilla.initial_run(window)

    removed = len(weeks[0])
    s = slider.advance(final_week, removed)
    v = vanilla.advance(final_week, removed)
    assert s.outputs == v.outputs
    speedup = s.report.speedup_over(v.report)
    return speedup.time, speedup.work


def test_table5_netsession():
    rows = []
    results = {}
    for fraction in UPLOAD_FRACTIONS:
        time_speedup, work_speedup = measure_fraction(fraction)
        results[fraction] = (time_speedup, work_speedup)
        rows.append(
            [f"{int(fraction * 100)}%", time_speedup, work_speedup]
        )

    print()
    print(
        format_table(
            "Table 5 — NetSession log audits (variable-width, month window, "
            "weekly slide)",
            ["% clients online to upload", "time speedup", "work speedup"],
            rows,
        )
    )

    for fraction, (time_speedup, work_speedup) in results.items():
        assert work_speedup > 1.3, (fraction, work_speedup)
        assert time_speedup > 1.3, (fraction, time_speedup)
        assert work_speedup < 12.0
    # Fewer uploads = smaller delta = larger speedup (the paper's trend).
    assert results[0.75][1] > results[1.0][1]
