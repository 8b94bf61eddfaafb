"""Unified telemetry backbone: spans, counters, traces.

One span tree per run — ``run → window-update → phase → tree-level →
task/attempt`` — is the single source of truth for the paper's *work*
and *time* measures and for fault accounting.  See
:mod:`repro.telemetry.spans` for the model and the bit-identity
contract, :mod:`repro.telemetry.export` for Chrome trace-event JSON
output, and :mod:`repro.telemetry.worktable` for the per-level work
table checked against the asymptotic-analysis bounds.
"""

from repro.telemetry.spans import (
    ENGINE_KEEP_LAST,
    NullTelemetry,
    Phase,
    Span,
    SpanKind,
    Telemetry,
    TelemetrySnapshot,
)
from repro.telemetry.merge import (
    CaptureTelemetry,
    graft_spans,
    replay_events,
)
from repro.telemetry.export import (
    TraceValidationError,
    to_chrome_trace,
    validate_trace_events,
    write_chrome_trace,
)
from repro.telemetry.worktable import (
    LevelRow,
    check_incremental_bounds,
    check_initial_run_bounds,
    format_level_table,
    per_level_table,
)

__all__ = [
    "ENGINE_KEEP_LAST",
    "CaptureTelemetry",
    "graft_spans",
    "replay_events",
    "NullTelemetry",
    "Phase",
    "Span",
    "SpanKind",
    "Telemetry",
    "TelemetrySnapshot",
    "TraceValidationError",
    "to_chrome_trace",
    "validate_trace_events",
    "write_chrome_trace",
    "LevelRow",
    "check_incremental_bounds",
    "check_initial_run_bounds",
    "format_level_table",
    "per_level_table",
]
