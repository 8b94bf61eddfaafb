"""Durability and recovery: checkpoint, restore and the restore sweep.

The recovery subsystem makes the whole Slider pipeline restartable:

* :mod:`repro.recovery.segments` — the on-disk checkpoint format: a
  manifest plus content-fingerprinted pickle segments, verified eagerly
  on restore (tampering raises
  :class:`~repro.common.errors.CorruptionError`);
* :mod:`repro.recovery.state` — capture/apply of every piece of cross-run
  engine state: window, memo tables, tree internals, distributed cache,
  block placement, and the telemetry backbone (replayed so float
  accounting stays bit-identical);
* :mod:`repro.recovery.checkpoint` — ``Slider.checkpoint``/``restore``
  and the :class:`~repro.slider.driver.StreamDriver` resume path that
  replays only the unacknowledged record tail;
* :mod:`repro.recovery.repair` — the restore sweep, which proves every
  restored partition against its uid before any run reads it.

That a restored engine continues bit for bit is held by the test oracle
(``tests/oracle``), one arm of which is killed and restored before every
rule of every walk.
"""

from repro.recovery.checkpoint import (
    restore_driver,
    restore_slider,
    write_checkpoint,
    write_driver_checkpoint,
)
from repro.recovery.segments import read_segment, write_segments

__all__ = [
    "read_segment",
    "restore_driver",
    "restore_slider",
    "write_checkpoint",
    "write_driver_checkpoint",
    "write_segments",
]
